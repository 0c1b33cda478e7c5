"""The one command behind every performance number in this repo.

Two modes:

* ``run.py --workload W --seed S --seconds T --trace 0|1`` runs one
  workload in this interpreter and prints, as its last line, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}``: the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.  This is the form ``BENCHMARK.json`` declares.
* ``run.py [--seed S] [--repeat N]`` runs the whole suite: every
  workload, both passes, each in a fresh interpreter, one after the
  other (so ``peak_rss_mb`` is per workload and no ``lru_cache`` or GC
  state leaks between them), prints every metric as
  ``workload metric value unit``, writes ``out/latest.json`` with the
  machine context, and exits non-zero if any correctness gate failed.

``--smoke`` runs ``selfcheck.py``.

The metric names, units and bounds live in ``BENCHMARK.json`` at the
repo root and nowhere else; a workload that computes a metric the
file does not declare, or fails to compute one that no workload
computes, is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARATION = ROOT / "BENCHMARK.json"


def load_declaration() -> dict:
    with open(DECLARATION) as handle:
        return json.load(handle)


def import_workloads():
    """Put the repo's ``src/`` on the path and import the workloads.

    The benchmark measures the checkout it sits in; without one (only
    ``BENCHMARK.json`` and this directory present) there is nothing to
    measure and the run must fail rather than find some other
    installed ``repro``.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def select_metrics(declared: list, measured: dict, fill: bool) -> dict:
    """``measured`` as ``{name: {"value", "unit"}}`` over exactly the
    declared names.  With ``fill``, a layer the workload does not touch
    reads 0 (a simulator run sends no frames); a measured name that is
    not declared is always an error."""
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        sys.exit(f"run.py: metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(names - set(measured))
    if missing and not fill:
        sys.exit(f"run.py: declared metrics not measured: {missing}")
    return {
        metric["name"]: {
            "value": float(measured.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }


def run_one(args, declaration: dict) -> int:
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir=args.out_dir)
    if args.trace:
        outcome = workload.traced(args.seconds)
        metrics = select_metrics(declaration["per_layer"], outcome["metrics"], True)
    else:
        outcome = workload.measure(args.seconds)
        metrics = select_metrics(declaration["end_to_end"], outcome["metrics"], False)
    for problem in outcome["problems"]:
        print(f"run.py: {args.workload}: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} inputs {workload.input_digest()} sha256")
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def machine_context(seed: int, seconds: float) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "event_loop": "asyncio",
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
    }


def run_suite(args, declaration: dict) -> int:
    out_dir = Path(args.out_dir) if args.out_dir else HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    ok = True
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for spec in declaration["workloads"]:
            for trace in (0, 1) if args.trace is None else (args.trace,):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", spec["name"], "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]
                if repeat == 0:  # one span dump per workload is plenty
                    command += ["--out-dir", str(out_dir)]
                done = subprocess.run(command, capture_output=True, text=True)
                sys.stderr.write(done.stderr)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{spec['name']} trace={trace} FAILED to run")
                    ok = False
                    continue
                print("\n".join(lines[:-1]))
                outcome = json.loads(lines[-1])
                ok = ok and outcome["correct"]
                runs.append(
                    dict(outcome, workload=spec["name"], seed=seed, trace=trace)
                )
    context = machine_context(args.seed, args.seconds)
    calib = [
        run["metrics"]["gen.calib_ms"]["value"] for run in runs if run["trace"]
    ]
    context["gen.calib_ms"] = statistics.median(calib) if calib else None
    target = Path(args.out) if args.out else out_dir / "latest.json"
    with open(target, "w") as handle:
        json.dump({"context": context, "runs": runs}, handle, indent=1)
    print(f"wrote {target} ({len(runs)} runs, correct={ok})")
    return 0 if ok else 1


def main() -> int:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(declaration["run_seconds"])
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="pass to run: 0 end-to-end, 1 per-layer (suite default: both)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="suite: runs per workload, seeds S, S+1, ...",
    )
    parser.add_argument("--out", help="suite: result file (default out/latest.json)")
    parser.add_argument(
        "--out-dir", help="where span dumps (and the suite's result) go"
    )
    parser.add_argument("--smoke", action="store_true", help="run selfcheck.py")
    args = parser.parse_args()
    if args.smoke:
        return subprocess.run([sys.executable, str(HERE / "selfcheck.py")]).returncode
    if args.workload:
        return run_one(args, declaration)
    return run_suite(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
