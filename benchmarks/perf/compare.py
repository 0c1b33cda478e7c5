"""Noise-aware comparison of two result files: ``compare.py A.json B.json``.

Each file is what ``run.py`` wrote (``{"context", "runs"}``): one run
per workload, or a set of runs made with ``--repeat``.  ``A`` is the
parent, ``B`` the change.  For every workload and end-to-end metric
the medians and quartiles of both sides are printed with one verdict,
using the bounds in ``BENCHMARK.json``:

``regressed``
    B's median is worse than A's by more than the bound.
``improved``
    the interquartile ranges do not overlap (B's worse quartile is
    better than A's better one), or every run of B reads better than
    every run of A.
``unresolved``
    the run-to-run spread of either side is wider than the bound, so
    a move of the size the bound forbids could hide in it.
``unchanged``
    anything else.

A metric whose bound is 0 (``mean_stretch``) must match exactly.  The
exit code is non-zero on any regression and on any rise in the share
of failed operations.  Counts the traced pass reports as exact
(``EXACT_COUNTS``) are listed separately: they must agree within one
file, and a difference between the files is reported as a change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: per-layer counts that are a pure function of the code (fixed sample)
EXACT_COUNTS = (
    "routing.hops_per_op",
    "ecan.hops_per_route",
    "builder.messages_per_join",
)


def load_runs(path) -> list:
    with open(path) as handle:
        document = json.load(handle)
    return document["runs"] if isinstance(document, dict) else document


def quartiles(values) -> tuple:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(runs, workload, metric, trace) -> list:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload
        and run["trace"] == trace
        and metric in run["metrics"]
    ]


def verdict(a, b, bound, better) -> str:
    # orient both sides so that lower is better from here on
    sign = 1.0 if better == "lower" else -1.0
    a, b = [sign * v for v in a], [sign * v for v in b]
    (a_lo, a_mid, a_hi), (b_lo, b_mid, b_hi) = quartiles(a), quartiles(b)
    if bound == 0:
        if min(a + b) == max(a + b):
            return "unchanged"
        if b_mid == a_mid:
            return "unresolved"  # an exact metric that varies within a set
        return "regressed" if b_mid > a_mid else "improved"
    base = abs(a_mid)
    if (b_mid - a_mid) / base > bound:
        return "regressed"
    sets = len(a) > 1 and len(b) > 1
    if sets and max(b) < min(a):
        return "improved"
    if max(a_hi - a_lo, b_hi - b_lo) / base > bound:
        return "unresolved"
    if sets and b_hi < a_lo:
        return "improved"
    return "unchanged"


def failed_share(runs, workload) -> float:
    mine = [run for run in runs if run["workload"] == workload]
    attempted = sum(run["attempted"] for run in mine)
    return sum(run["failed"] for run in mine) / attempted if attempted else 0.0


def compare(runs_a, runs_b, declaration, out=sys.stdout) -> int:
    """Print the table; returns the number of regressions found."""
    bad = 0
    header = (
        f"{'workload':20s} {'metric':14s} {'A median [q1..q3]':>34s} "
        f"{'B median [q1..q3]':>34s} {'change':>8s}  verdict"
    )
    print(header, file=out)
    for spec in declaration["workloads"]:
        name = spec["name"]
        for metric in declaration["end_to_end"]:
            a = values_of(runs_a, name, metric["name"], 0)
            b = values_of(runs_b, name, metric["name"], 0)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            outcome = verdict(a, b, metric["bound"], metric["better"])
            bad += outcome == "regressed"
            change = (qb[1] - qa[1]) / abs(qa[1]) * 100.0

            def cell(q):
                return f"{q[1]:.5g} [{q[0]:.5g}..{q[2]:.5g}]"

            print(
                f"{name:20s} {metric['name']:14s} {cell(qa):>34s} "
                f"{cell(qb):>34s} {change:+7.1f}%  {outcome}",
                file=out,
            )
        fa, fb = failed_share(runs_a, name), failed_share(runs_b, name)
        if fa or fb:
            rose = fb > fa
            bad += rose
            print(
                f"{name:20s} failed_share   {fa:.3g} -> {fb:.3g}"
                f"  {'regressed' if rose else 'unchanged'}",
                file=out,
            )
        for count in EXACT_COUNTS:
            a = values_of(runs_a, name, count, 1)
            b = values_of(runs_b, name, count, 1)
            if not a or not b or not (a[0] or b[0]):
                continue
            if len(set(a)) > 1 or len(set(b)) > 1:
                bad += 1
                state = "NOT REPEATABLE within one file"
            else:
                state = "same" if a[0] == b[0] else f"changed {a[0]:.6g} -> {b[0]:.6g}"
            print(f"{name:20s} {count:28s} {state}", file=out)
    return bad


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(DECLARATION) as handle:
        declaration = json.load(handle)
    bad = compare(load_runs(argv[1]), load_runs(argv[2]), declaration)
    print(f"{bad} regression(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
