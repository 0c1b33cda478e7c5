"""Record plumbing for the figure bench (``bench_figures.py``).

A bench run prints one figure's table (visible with ``pytest
benchmarks/ -s`` or on the captured-output section of a failure) and
writes its record, ``<name>.json`` (shape checked by
``scripts/bench_report.py``): parameters, seed, the raw rows and their
bootstrap summary.  The directory follows the scale
(``repro.experiments.report.record_dir``): ``benchmarks/out/`` at
quick, ``benchmarks/results_medium/`` at medium -- both committed.

A record holds only what a same-seed run reproduces byte for byte, so
``git diff -- benchmarks/`` after a bench run is an exact regression
check.  Wall-clock measurements (and counts that depend on a wall-clock
race) live under keys prefixed ``wall``; :func:`emit` drops them from
the JSON.  A bench whose point is a message bill reads it from its own
network into a row column.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

SCHEMA_VERSION = 1


def drop_wall(value):
    """Clone with every key starting with ``wall`` removed, at any depth."""
    if isinstance(value, dict):
        return {
            k: drop_wall(v)
            for k, v in value.items()
            if not str(k).startswith("wall")
        }
    if isinstance(value, (list, tuple)):
        return [drop_wall(v) for v in value]
    return value


def _jsonable(value):
    """Strict-JSON clone: numpy scalars unboxed, non-finite floats -> None."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def summarize_rows(rows, seed: int = 0) -> dict:
    """Mean + bootstrap 95% CI per numeric column of ``rows``.

    None and non-finite entries are skipped; all-missing columns are
    omitted.  The bootstrap draws from one Generator seeded with
    ``seed``, so same-seed runs produce identical intervals.
    """
    from repro.core.stats import bootstrap_ci

    if not rows:
        return {}
    rng = np.random.default_rng(seed)
    summary: dict = {}
    columns: list = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    for column in columns:
        values = []
        for row in rows:
            value = row.get(column)
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                continue
            value = float(value)
            if math.isfinite(value):
                values.append(value)
        if not values:
            continue
        low, high = bootstrap_ci(values, rng=rng)
        summary[column] = {
            "mean": float(np.mean(values)),
            "lo": low,
            "hi": high,
            "n": len(values),
        }
    return summary


def canonical_json(record) -> str:
    """Stable serialisation: sorted keys, 2-space indent, strict floats."""
    return json.dumps(
        _jsonable(record), sort_keys=True, indent=2, allow_nan=False
    ) + "\n"


def emit(record: dict, table: str, out_dir: pathlib.Path) -> None:
    """Print ``table`` and write ``record`` to ``out_dir/<name>.json``.

    ``record`` is what :meth:`repro.experiments.registry.Figure.record`
    returns; the schema version and the summary are added here.  The
    summary is drawn over every column and the ``wall*`` ones dropped
    afterwards: the seeded bootstrap spends its draws by column order
    and sample size, never by value, so the surviving intervals do not
    depend on what a wall column measured.
    """
    print(f"\n{table}\n")
    out_dir.mkdir(exist_ok=True)
    full = {
        "schema_version": SCHEMA_VERSION,
        **record,
        "summary": summarize_rows(record["rows"], seed=record["seed"]),
    }
    path = out_dir / f"{record['name']}.json"
    path.write_text(canonical_json(drop_wall(full)))
