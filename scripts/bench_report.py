"""Validate the committed bench records, quick and medium.

A bench run leaves one record per catalogue row in its scale's
directory (written by ``benchmarks/_common.emit``): exactly the seven
keys of :data:`RECORD_FIELDS`, holding only what a same-seed run
reproduces byte for byte -- so no key starting with ``wall`` at any
depth.  The records are committed, and ``git diff --exit-code --
benchmarks/out`` after a bench run (``make ci``) is the regression
gate; this script only checks their shape and writes nothing.  (Whether
a record keeps its figure's *shape* is the registry's gates' job:
``tests/experiments/test_report.py``.)

Usage::

    python scripts/bench_report.py
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the committed record directories: quick scale, medium scale
RECORD_DIRS = (
    REPO_ROOT / "benchmarks" / "out",
    REPO_ROOT / "benchmarks" / "results_medium",
)

SCHEMA_VERSION = 1

#: the whole record: key -> JSON type
RECORD_FIELDS = {
    "schema_version": int,
    "name": str,
    "title": str,
    "params": dict,
    "seed": int,
    "rows": list,
    "summary": dict,
}

#: one ``summary`` entry: mean and bootstrap 95% CI over ``n`` values
CI_FIELDS = ("mean", "lo", "hi", "n")


def _is(value, kind) -> bool:
    """``isinstance`` that does not take a bool for a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def wall_keys(value, path: str = "$") -> list:
    """Paths of every key starting with ``wall``, at any depth."""
    found = []
    if isinstance(value, dict):
        for key, child in value.items():
            if key.startswith("wall"):
                found.append(f"{path}.{key}")
            else:
                found.extend(wall_keys(child, f"{path}.{key}"))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            found.extend(wall_keys(child, f"{path}[{i}]"))
    return found


def check_record(record: dict) -> list:
    """Shape errors of one record as strings; empty means valid."""
    errors = [
        f"missing required key {key!r}"
        for key in RECORD_FIELDS
        if key not in record
    ]
    errors.extend(
        f"unexpected key {key!r}" for key in record if key not in RECORD_FIELDS
    )
    for key, kind in RECORD_FIELDS.items():
        if key in record and not _is(record[key], kind):
            errors.append(
                f"{key}: expected {kind.__name__}, "
                f"got {type(record[key]).__name__}"
            )
    if errors:
        return errors
    if record["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version: {record['schema_version']!r} is not {SCHEMA_VERSION}"
        )
    for i, row in enumerate(record["rows"]):
        if not isinstance(row, dict):
            errors.append(f"rows[{i}]: expected dict, got {type(row).__name__}")
    for column, ci in record["summary"].items():
        if not isinstance(ci, dict) or not all(
            _is(ci.get(part), (int, float)) for part in CI_FIELDS
        ):
            errors.append(f"summary.{column}: expected numbers {CI_FIELDS}")
    errors.extend(
        f"{path}: wall-clock key in a committed record"
        for path in wall_keys(record)
    )
    return errors


def load_records(out_dir: pathlib.Path) -> dict:
    """``file stem -> record`` for every ``*.json`` under ``out_dir``."""
    return {
        record_path.stem: json.loads(record_path.read_text())
        for record_path in sorted(out_dir.glob("*.json"))
    }


def main() -> int:
    failed = False
    for out_dir in RECORD_DIRS:
        records = load_records(out_dir)
        if not records:
            print(f"no bench records under {out_dir}", file=sys.stderr)
            failed = True
        for name, record in records.items():
            for error in check_record(record):
                print(f"{out_dir.name}/{name}: {error}", file=sys.stderr)
                failed = True
        print(f"{out_dir.name}: {len(records)} bench records checked")
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
