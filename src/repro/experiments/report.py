"""Compute EXPERIMENTS.md from the committed bench records.

Every section is assembled from :data:`repro.experiments.registry.FIGURES`
and the records the benches left: the tables are the medium archive's
rows (``benchmarks/results_medium/``), every measured number in a "We
measure" paragraph is filled from those rows, and each shape gate's
verdict is evaluated on the committed quick *and* medium record -- so
the file cannot claim a shape the archive does not have.

Usage::

    python -m repro report       # rewrite EXPERIMENTS.md
"""

from __future__ import annotations

import itertools
import json
import pathlib

from repro.experiments.registry import FIGURES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
TARGET = REPO_ROOT / "EXPERIMENTS.md"
#: the scales with committed records; prose and tables quote the last
COMMITTED = ("quick", "medium")


def record_dir(scale: str) -> pathlib.Path:
    """Where the benches write (and this module reads) ``scale``'s records."""
    name = "out" if scale == "quick" else f"results_{scale}"
    return REPO_ROOT / "benchmarks" / name


def load_record(name: str, scale: str):
    """The committed record of figure ``name`` at ``scale``, or None."""
    path = record_dir(scale) / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else None


HEADER = """\
# EXPERIMENTS — paper vs. measured

Regenerate everything with:

```bash
pytest benchmarks/                      # quick scale (default) -> benchmarks/out/
REPRO_SCALE=medium pytest benchmarks/   # the scale shown below -> benchmarks/results_medium/
python -m repro report                  # rewrite this file from the committed records
```

The OCR of the paper available to this reproduction stripped nearly all
digits; DESIGN.md documents every reconstructed parameter (topologies
~10k nodes, 4096-node overlays, 15 landmarks, 10 RTT probes, manual
latencies 100/20/5.5/1 ms). Absolute numbers therefore cannot be
compared digit-for-digit; the reproduction target is the *shape* of
each result -- who wins, by what factor class, and how curves move with
each parameter.

Scales: `quick` (default; ~1k-node topologies, 192-256-node overlays,
~1 min for the whole suite), `medium` (full ~10k-node topologies,
1024-node overlays, ~7 min on a 2-vCPU box) and `paper` (4096-node
overlays, 2N route samples). The tables below are the `medium` records
committed in `benchmarks/results_medium/`, the run the "We measure"
paragraphs quote -- the scale is printed in each table's title line.
Each section's **Gates** are the shape checks its bench asserts
(`repro.experiments.registry`), re-evaluated here on the committed
quick / medium records; `run-time only` marks a gate that reads `wall*`
values a record does not keep, judged when the bench runs.
"""


def render() -> str:
    """EXPERIMENTS.md content computed from the registry + the records."""
    parts = [HEADER]
    for _, section in itertools.groupby(FIGURES, key=lambda figure: figure.exp_id):
        section = list(section)
        head = section[0]
        said, gates, tables = [], [], []
        for figure in section:
            records = {s: load_record(figure.name, s) for s in COMMITTED}
            shown = records[COMMITTED[-1]]
            if figure.we_measure:
                said.append(figure.says(shown) if shown else figure.we_measure)
            judged = [
                figure.verdicts(record) if record else {}
                for record in records.values()
            ]
            for label, _ in figure.gates:
                verdicts = " / ".join(v.get(label, "no record") for v in judged)
                gates.append(f"- {verdicts}: `{figure.name}` {label}")
            if shown:
                tables.append("```\n" + figure.table(shown).rstrip() + "\n```\n")
            else:
                tables.append(
                    f"*(run the bench at medium scale to produce "
                    f"`benchmarks/results_medium/{figure.name}.json`)*\n"
                )
        names = " ".join(figure.name for figure in section)
        parts += [
            f"\n## {head.exp_id}: {head.heading}\n",
            f"**Paper says.** {head.paper_says}\n",
            f"**We measure.** {' '.join(said)}\n",
            f"**Bench.** `python -m repro run {names}`\n",
            "**Gates** (quick / medium).\n\n" + "\n".join(gates) + "\n",
            *tables,
        ]
    return "\n".join(parts)


def main() -> None:
    """Rewrite EXPERIMENTS.md in place."""
    TARGET.write_text(render())
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
