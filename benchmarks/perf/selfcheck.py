"""Fast consistency check of the benchmark itself (``run.py --smoke``).

Runs every workload once per pass at toy size (one set-up, a fraction
of a second of load, 128-node simulator overlays) and checks what a
full run takes on trust:

* ``BENCHMARK.json`` is well formed: names, units, counts, bounds,
  the ``setup_s`` metric, the size limits;
* request generation is a pure function of ``--seed``: the digest of
  the generated inputs repeats for one seed and differs for another;
* every workload emits exactly the declared end-to-end metrics, no
  workload emits a per-layer metric that is not declared, and every
  declared per-layer metric is produced by at least one workload;
* the values that must be identical across runs of the same code
  (``mean_stretch``, ``routing.hops_per_op``, ``ecan.hops_per_route``,
  ``builder.messages_per_join``) agree between the two passes, which
  boot their clusters and build their overlays independently;
* no operation failed and every correctness gate held.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import re
import sys
import time

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


def check_declaration(declaration: dict, problems: list) -> None:
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(declaration) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(declaration)} != {sorted(expected)}")
    if run.DECLARATION.stat().st_size > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    names = []
    for section, (low, high) in limits.items():
        entries = declaration[section]
        if not low <= len(entries) <= high:
            problems.append(f"{section}: {len(entries)} entries, want {low}..{high}")
        names += [entry["name"] for entry in entries]
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for workload in declaration["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200:
            problems.append(f"workload {workload.get('name')}: keys or why too long")
    for metric in declaration["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"}:
            problems.append(f"end_to_end {metric.get('name')}: wrong keys")
        elif not 0 <= metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound {metric['bound']} not in 0..0.25")
    for metric in declaration["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"per_layer {metric.get('name')}: wrong keys")
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        if not UNIT.match(metric.get("unit", "")):
            problems.append(f"{metric['name']}: bad unit {metric.get('unit')!r}")
        if metric.get("better") not in ("lower", "higher"):
            problems.append(f"{metric['name']}: better must be lower or higher")
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s [s, lower]")
    if not 1 <= declaration["run_seconds"] <= 60:
        problems.append("run_seconds out of 1..60")


def main() -> int:
    began = time.perf_counter()
    problems: list = []
    declaration = run.load_declaration()
    check_declaration(declaration, problems)
    workloads = run.import_workloads()
    # toy size: the point is the plumbing, not the numbers
    workloads.SETUPS = 1
    workloads.WARMUP_S = 0.05
    workloads.SIM_NODES = 128
    workloads.MICRO_REPS = 1
    workloads.LiveShardClosed.count = 512
    workloads.LiveShardClosed.nodes = 16

    end_to_end = {metric["name"] for metric in declaration["end_to_end"]}
    per_layer = {metric["name"] for metric in declaration["per_layer"]}
    declared = [spec["name"] for spec in declaration["workloads"]]
    if declared != list(workloads.WORKLOADS):
        problems.append(f"workloads {list(workloads.WORKLOADS)} != declared {declared}")
    produced = set()
    for name, cls in workloads.WORKLOADS.items():
        first, again, other = cls(SEED), cls(SEED), cls(SEED + 1)
        digests = (first.input_digest(), again.input_digest(), other.input_digest())
        if digests[0] != digests[1] or digests[0] == digests[2]:
            problems.append(f"{name}: inputs are not a pure function of the seed")
        measured = first.measure(0.25)
        traced = again.traced(0.5)
        emitted = set(measured["metrics"])
        if emitted != end_to_end:
            problems.append(f"{name}: end-to-end {sorted(emitted ^ end_to_end)} differ")
        extra = set(traced["metrics"]) - per_layer
        if extra:
            problems.append(f"{name}: undeclared per-layer metrics {sorted(extra)}")
        produced |= set(traced["metrics"])
        for key in set(first.exact) & set(again.exact):
            if first.exact[key] != again.exact[key]:
                problems.append(
                    f"{name}: {key} differs between passes: "
                    f"{first.exact[key]!r} vs {again.exact[key]!r}"
                )
        for outcome in (measured, traced):
            if not outcome["correct"]:
                problems.append(
                    f"{name}: not correct: failed={outcome['failed']} "
                    f"{outcome['problems']}"
                )
        print(f"selfcheck {name} inputs {digests[0]} ok")
    unproduced = per_layer - produced
    if unproduced:
        problems.append(f"no workload produces {sorted(unproduced)}")
    for problem in problems:
        print(f"selfcheck: {problem}")
    print(
        f"selfcheck: {len(problems)} problem(s) in "
        f"{time.perf_counter() - began:.1f} s"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
