"""The pairs rule as a command: does this tree beat ``--base`` on one metric?

``benchmarks/perf/README.md`` says a gain "is claimed by the pairs
rule"; this runs it.  The base revision is exported (``git archive``)
into a temporary directory, and for seeds S..S+N-1 (S is
``--first-seed``, 1 unless given) both trees run

    python3 benchmarks/perf/run.py --workload W --seed i --trace 0

one after the other, alternating which side goes first so that a slow
minute of the box lands on both.  It prints every pair, both sides'
medians and quartiles, wins / ties / losses, and the verdict of the
choosing-metrics rule: the change **wins at least nine tenths of all
pairs run** (a tie counts for neither side) **and the medians differ
by more than the parent's own interquartile range**.

    python scripts/perf_pairs.py --base HEAD~1 \\
        --workload live_lookup_closed --metric cpu_us_per_op

The last line ``run.py`` prints carries every end-to-end metric, so
the same pairs also answer the other half of a claim: after the
verdict on ``--metric`` it lists the remaining end-to-end metrics of
that workload (both medians, their ratio, the bound ``BENCHMARK.json``
fixes) as ``within bound`` or ``WORSE``.

``--also W`` (repeatable; ``--also all`` for every other declared
workload) makes the same command the whole no-regression check: each
named workload gets its own N alternating pairs against the same
exported base, and the bound table of all its end-to-end metrics.
Only ``--workload`` gets the gain verdict.

    python scripts/perf_pairs.py --base HEAD~1 --workload sim_route \\
        --metric cpu_us_per_op --also all

A claim can be re-checked on seeds that were not used while the
change was written: ``--first-seed 101`` runs seeds 101..100+N.

It reads only ``BENCHMARK.json`` (the workload names, each metric's
direction and bound) and that last line; it imports nothing from and
writes nothing under ``benchmarks/perf/``.  Exit status: 0 gain shown
and nothing on any workload worse than its bound, 1 otherwise, 2 a
run failed or answered incorrectly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values) -> tuple:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: list, change: list, better: str) -> dict:
    """Apply the pairs rule to paired samples (``base[i]`` ran with
    ``change[i]``); ``better`` is ``"lower"`` or ``"higher"``."""
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (c - b) for b, c in zip(base, change)]
    wins = sum(1 for gain in gains if gain > 0)
    ties = sum(1 for gain in gains if gain == 0)
    base_q1, base_median, base_q3 = quartiles(base)
    _, change_median, _ = quartiles(change)
    gain = sign * (change_median - base_median)
    spread = base_q3 - base_q1
    enough_wins = 10 * wins >= 9 * len(gains)
    clear_of_spread = gain > spread
    return {
        "pairs": len(gains),
        "wins": wins,
        "ties": ties,
        "losses": len(gains) - wins - ties,
        "median_gain": gain,
        "base_iqr": spread,
        "enough_wins": enough_wins,
        "clear_of_spread": clear_of_spread,
        "gain_shown": enough_wins and clear_of_spread,
    }


def declared_metrics() -> list:
    """``BENCHMARK.json``'s end-to-end entries: name, better, bound."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)["end_to_end"]


def direction_of(metric: str) -> str:
    declared = declared_metrics()
    for entry in declared:
        if entry["name"] == metric:
            return entry["better"]
    names = ", ".join(entry["name"] for entry in declared)
    sys.exit(f"perf_pairs: {metric!r} is not an end-to-end metric ({names})")


def bound_check(base: list, change: list, better: str, bound: float) -> dict:
    """Is the change's median worse than the base's by more than ``bound``?

    ``bound`` is the fraction of the base median a metric may worsen
    by (0 = may not move against its direction at all).
    """
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change_median - base_median)
    return {
        "base_median": base_median,
        "change_median": change_median,
        "ratio": change_median / base_median if base_median else float("nan"),
        "bound": bound,
        "worse": worsening > bound * abs(base_median),
    }


def export_base(rev: str, target: Path) -> None:
    """The committed files of ``rev`` under ``target``; the repository
    itself (index, worktree list) is left exactly as it was."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def measure(tree: Path, workload: str, seed: int) -> dict:
    """One run's end-to-end metrics, name -> value."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/perf/run.py",
            "--workload", workload, "--seed", str(seed), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit(2)
    outcome = json.loads(lines[-1])
    if not outcome["correct"] or outcome["failed"]:
        print(
            f"perf_pairs: {tree} seed {seed}: correct={outcome['correct']} "
            f"failed={outcome['failed']}/{outcome['attempted']}",
            file=sys.stderr,
        )
        sys.exit(2)
    return {
        name: float(entry["value"]) for name, entry in outcome["metrics"].items()
    }


def declared_workloads() -> list:
    """``BENCHMARK.json``'s workload names, in declared order."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return [entry["name"] for entry in json.load(handle)["workloads"]]


def expand_also(also: list, claimed: str) -> list:
    """The workloads ``--also`` names, in declared order, without
    ``claimed``; ``all`` names every declared workload."""
    declared = declared_workloads()
    wanted = set(declared) if "all" in also else set(also)
    unknown = sorted(wanted - set(declared))
    if unknown:
        sys.exit(
            f"perf_pairs: {', '.join(unknown)} not a declared workload "
            f"({', '.join(declared)})"
        )
    return [name for name in declared if name in wanted and name != claimed]


def run_pairs(
    base_tree: Path, workload: str, metric: str, pairs: int, first_seed: int
) -> tuple:
    """``pairs`` alternating runs of both trees on seeds ``first_seed``
    onwards: (base runs, change runs), one {metric: value} per run,
    ``metric`` printed per pair.  The base goes first in the first pair."""
    base, change = [], []
    print(f"# {workload}: {metric} per pair")
    print("| seed | first | base | change |")
    print("|---|---|---|---|")
    for i, seed in enumerate(range(first_seed, first_seed + pairs)):
        order = ("change", "base") if i % 2 else ("base", "change")
        values = {}
        for side in order:
            tree = base_tree if side == "base" else ROOT
            values[side] = measure(tree, workload, seed)
        base.append(values["base"])
        change.append(values["change"])
        print(
            f"| {seed} | {order[0]} | {values['base'][metric]:.6g} "
            f"| {values['change'][metric]:.6g} |",
            flush=True,
        )
    return base, change


def column(runs, metric):
    return [run[metric] for run in runs]


def print_verdict(base: list, change: list, better: str) -> dict:
    verdict = judge(base, change, better)
    for side, values in (("base", base), ("change", change)):
        q1, median, q3 = quartiles(values)
        print(f"{side:>6}: median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    print(
        f"change wins {verdict['wins']}/{verdict['pairs']}, "
        f"ties {verdict['ties']}, losses {verdict['losses']} "
        f"(needs nine tenths: {'yes' if verdict['enough_wins'] else 'no'})"
    )
    print(
        f"median gain {verdict['median_gain']:.6g} vs parent IQR "
        f"{verdict['base_iqr']:.6g} "
        f"(needs more: {'yes' if verdict['clear_of_spread'] else 'no'})"
    )
    print("verdict:", "gain shown" if verdict["gain_shown"] else "gain NOT shown")
    return verdict


def print_bounds(workload: str, base: list, change: list, skip=None) -> list:
    """The bound table of ``workload``'s end-to-end metrics (all but
    ``skip``); returns the names of those worse than their bound."""
    print(f"# end-to-end metrics of {workload} against their bounds, same pairs")
    print("| metric | base median | change median | change/base | bound | |")
    print("|---|---|---|---|---|---|")
    worse = []
    for entry in declared_metrics():
        name = entry["name"]
        if name == skip:
            continue
        check = bound_check(
            column(base, name), column(change, name), entry["better"], entry["bound"]
        )
        if check["worse"]:
            worse.append(name)
        print(
            f"| {name} | {check['base_median']:.6g} | {check['change_median']:.6g} "
            f"| {check['ratio']:.3f} | {check['bound']:g} "
            f"| {'WORSE' if check['worse'] else 'within bound'} |"
        )
    return worse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--first-seed", type=int, default=1, metavar="N",
        help="seed of the first pair (default 1); the pairs run N, N+1, ...",
    )
    parser.add_argument(
        "--also", action="append", default=[], metavar="W",
        help="one more workload held to its bounds (repeatable); 'all' for "
        "every other declared workload",
    )
    args = parser.parse_args()
    better = direction_of(args.metric)
    also = expand_also(args.also, args.workload)
    worse = []
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as scratch:
        base_tree = Path(scratch)
        export_base(args.base, base_tree)
        print(
            f"# claim: {args.workload} {args.metric} ({better} is better), "
            f"base {args.base} vs {ROOT}"
        )
        base, change = run_pairs(
            base_tree, args.workload, args.metric, args.pairs, args.first_seed
        )
        verdict = print_verdict(
            column(base, args.metric), column(change, args.metric), better
        )
        worse += [
            f"{args.workload}/{name}"
            for name in print_bounds(args.workload, base, change, skip=args.metric)
        ]
        for workload in also:
            base, change = run_pairs(
                base_tree, workload, args.metric, args.pairs, args.first_seed
            )
            worse += [
                f"{workload}/{name}" for name in print_bounds(workload, base, change)
            ]
    if worse:
        print("worse than its bound:", ", ".join(worse))
    return 0 if verdict["gain_shown"] and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
