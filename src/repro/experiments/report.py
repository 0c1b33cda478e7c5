"""Assemble EXPERIMENTS.md from the benchmark outputs.

Each figure bench writes its regenerated series to
``benchmarks/out/<name>.txt``, and ``benchmarks/results_medium/``
archives the medium-scale set the prose below was written for; this
module pairs those tables with the paper's expected result and a
measured-vs-paper verdict, and renders the whole thing as
EXPERIMENTS.md.

Usage::

    python -m repro.experiments.report       # rewrite EXPERIMENTS.md
    REPRO_BENCH_DIR=benchmarks/out python -m repro.experiments.report
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
#: table source: the archived medium-scale run the "We measure" prose
#: describes; point REPRO_BENCH_DIR at benchmarks/out for a fresh run
OUT_DIR = pathlib.Path(
    os.environ.get(
        "REPRO_BENCH_DIR", REPO_ROOT / "benchmarks" / "results_medium"
    )
)
TARGET = REPO_ROOT / "EXPERIMENTS.md"


@dataclass(frozen=True)
class FigureReport:
    exp_id: str
    title: str
    out_files: tuple
    paper_says: str
    we_measure: str
    bench: str


REPORTS = [
    FigureReport(
        exp_id="Figure 2",
        title="eCAN vs CAN logical hops",
        out_files=("fig02_hops",),
        paper_says=(
            "A 2-d eCAN ('EXP') reaches O(log N) hops and outperforms basic "
            "CAN up to dimensionality 5 across N = 1K..128K (digits partially "
            "recovered from the OCR: the x-axis ends at 128K)."
        ),
        we_measure=(
            "At medium scale (N up to 16384): eCAN d=2 grows ~log N (3.1 -> "
            "5.5 mean hops) while CAN d=2 grows ~sqrt(N) (6.8 -> 50.7); even "
            "CAN d=5 (7.6 at 16K) loses to eCAN at every size.  Shape, "
            "who-wins and growth orders all match the paper."
        ),
        bench="benchmarks/bench_fig02_hops.py",
    ),
    FigureReport(
        exp_id="Figure 3",
        title="Hybrid landmark+RTT vs expanding-ring search, tsk-large",
        out_files=("fig03_nn_compare",),
        paper_says=(
            "ERS is not effective unless thousands of nodes are probed; "
            "landmark clustering alone (the first lmk+rtt point) is poor; the "
            "hybrid locates the nearest node with high probability after a "
            "moderate number of RTT measurements (tens)."
        ),
        we_measure=(
            "At medium scale lmk+rtt falls from 6.7x (1 probe = landmark-"
            "only) to 1.00 at 80 probes; ERS is still 2.2x after 2000 probes "
            "('thousands needed', as the paper says).  The landmark-ordering "
            "baseline (18.8x at 1 probe, 2.9x at 80) is far worse than "
            "vector ranking, matching the paper's critique; the GNP "
            "coordinate ranking (extra series) tracks vector ranking on "
            "this substrate."
        ),
        bench="benchmarks/bench_fig03_nn_compare.py",
    ),
    FigureReport(
        exp_id="Figure 4",
        title="ERS alone, tsk-large",
        out_files=("fig04_ers_large",),
        paper_says=(
            "Expanding-ring search needs a large number (thousands) of probed "
            "nodes to approach the true nearest neighbor on the sparse-stub "
            "topology."
        ),
        we_measure=(
            "Monotone but very slow decay; at the largest budget the stretch "
            "is still well above ideal (>2x at quick scale, consistent with "
            "the paper's 'thousands needed' at 10k nodes)."
        ),
        bench="benchmarks/bench_fig04_ers_large.py",
    ),
    FigureReport(
        exp_id="Figure 5",
        title="Hybrid search, tsk-small",
        out_files=("fig05_hybrid_small",),
        paper_says=(
            "Dense edge networks are harder: the hybrid needs to test on the "
            "order of a hundred nodes to get close to ideal, because "
            "landmarks cannot differentiate nodes within nearby stubs, but "
            "accuracy improves quickly with the RTT budget."
        ),
        we_measure=(
            "Same shape: stretch falls monotonically (5.0x at 1 probe, "
            "1.85x at 20, 1.26x at 80) -- the hybrid must 'test about a "
            "hundred nodes' for near-ideal results on dense stubs, exactly "
            "the paper's observation; convergence is slower than tsk-large "
            "at matched budgets."
        ),
        bench="benchmarks/bench_fig05_hybrid_small.py",
    ),
    FigureReport(
        exp_id="Figure 6",
        title="ERS alone, tsk-small",
        out_files=("fig06_ers_small",),
        paper_says="Blind flooding on the dense-stub topology; same story as Figure 4.",
        we_measure=(
            "Monotone decay; absolute stretch lower than tsk-large (rings "
            "contain genuinely close nodes in dense stubs) but convergence "
            "still takes orders of magnitude more probes than the hybrid."
        ),
        bench="benchmarks/bench_fig06_ers_small.py",
    ),
    FigureReport(
        exp_id="Figures 10-13",
        title="Routing stretch vs RTT budget and landmark count (4 panels)",
        out_files=(
            "fig10_stretch_vs_rtts",
            "fig11_stretch_vs_rtts",
            "fig12_stretch_vs_rtts",
            "fig13_stretch_vs_rtts",
        ),
        paper_says=(
            "Stretch falls with the number of RTT measurements and approaches "
            "the optimal line; increasing landmarks helps more with manually "
            "set latencies and large transits; tsk-small sits closer to "
            "optimal because suboptimal routes are cheap there. Landmark "
            "series reconstructed as {5, 15} (digits stripped)."
        ),
        we_measure=(
            "All four panels show soft-state sandwiched between random "
            "(~1.9x worse) and optimal, converging onto the optimal line as "
            "the budget grows (tsk-large manual: 3.67 at 1 probe -> 3.53 at "
            "10+, optimal 3.52); 15 landmarks edge out 5, most visibly on "
            "manual latencies; tsk-small sits closest to optimal -- the "
            "paper's 'closer to optimal for small transit'."
        ),
        bench="benchmarks/bench_fig10_13_stretch_vs_rtts.py",
    ),
    FigureReport(
        exp_id="Figures 14-15",
        title="Routing stretch vs overlay size, soft-state vs random",
        out_files=("fig14_stretch_vs_nodes", "fig15_stretch_vs_nodes"),
        paper_says=(
            "With 15 landmarks and 10 RTTs, global state improves stretch by "
            "a stable margin over random selection at every size (the '~%' "
            "improvement lost to OCR; tens of percent); the improvement is "
            "more significant for small-transit/large-stub topologies, and "
            "more prominent with manual latencies."
        ),
        we_measure=(
            "Soft-state wins at every (topology, N) cell, cutting mean "
            "stretch 47-60% (e.g. 3.9 vs 8.8 on tsk-large at N=1024, 4.2 vs "
            "10.6 on tsk-small); the relative win on tsk-small is slightly "
            "larger at the top sizes and the curves are roughly flat in N, "
            "as the paper observes."
        ),
        bench="benchmarks/bench_fig14_15_stretch_vs_nodes.py",
    ),
    FigureReport(
        exp_id="Figure 16",
        title="Map condense rate: entries/node vs stretch",
        out_files=("fig16_condense_rate",),
        paper_says=(
            "As long as there are about 10 entries on each hosting node the "
            "performance impact of condensing is negligible; landmark "
            "clustering concentrates records regardless, so the map must be "
            "spread (rate toward 1) to cut entries per node."
        ),
        we_measure=(
            "Condensing from rate 1 to 1/1024 shrinks the hosting set and "
            "raises mean entries/node (5.0 -> 6.5, max 43 -> 348) while "
            "mean stretch moves <20% across the sweep (3.6-4.3) -- flat, as "
            "the paper claims, with ~6 entries/node already sufficient.  "
            "The max-entries column is the landmark-clustering hot-spot the "
            "paper warns about (its reason for enlarging maps)."
        ),
        bench="benchmarks/bench_fig16_condense_rate.py",
    ),
    FigureReport(
        exp_id="S1 claim",
        title="Topologically-Aware CAN imbalance",
        out_files=("intro_tacan_imbalance",),
        paper_says=(
            "For a typical 10,000-node Topologically-Aware CAN, ~10% of nodes "
            "can occupy 80-98% of the Cartesian space, and some nodes "
            "maintain 20-30 neighbors (digits restored per DESIGN.md)."
        ),
        we_measure=(
            "At N=1024 the ordering-constrained layout needs only 13% of "
            "nodes to cover 80% of the space versus 58% for a uniform CAN "
            "(and 56% for 98%), with a heavier neighbor tail and 8x the "
            "uniform layout's max zone-volume ratio.  The paper's ~10% at "
            "10k nodes is right on this trend line."
        ),
        bench="benchmarks/bench_intro_tacan_imbalance.py",
    ),
    FigureReport(
        exp_id="S5.4",
        title="Two-gap breakdown of overlay stretch",
        out_files=("gap_breakdown_tsk-large", "gap_breakdown_tsk-small"),
        paper_says=(
            "Gap 1: meeting the prefix constraint costs tens of percent over "
            "shortest path even with perfect proximity. Gap 2: imperfect "
            "proximity generation adds a second, smaller gap; the technique "
            "cuts a large share of the random baseline's latency and "
            "approaches optimal for small backbones."
        ),
        we_measure=(
            "Structural gap ~2.1 (optimal stretch 3.1) on tsk-large/manual "
            "at quick scale -- the prefix constraint dominates; information "
            "gap is small (0.07), i.e. landmark+RTT nearly closes gap 2, and "
            "soft-state saves ~58% vs random. On tsk-small the optimal and "
            "soft-state lines almost coincide, as the paper predicts."
        ),
        bench="benchmarks/bench_gap_breakdown.py",
    ),
    FigureReport(
        exp_id="S5.2",
        title="Publish/subscribe vs periodic polling (ablation)",
        out_files=("pubsub_vs_polling",),
        paper_says=(
            "Re-selection 'ideally should be conducted in a demand-driven "
            "fashion'; gossip/polling 'may require extensive message "
            "exchanges to achieve reasonable accuracy'. No figure in the "
            "paper -- this ablation quantifies the design argument."
        ),
        we_measure=(
            "Under a join wave, pub/sub reaches within ~15% of polling-grade "
            "stretch for ~3.5x fewer maintenance messages; letting tables go "
            "stale ('none') costs ~2x stretch."
        ),
        bench="benchmarks/bench_pubsub_vs_polling.py",
    ),
    FigureReport(
        exp_id="S6",
        title="Load-aware neighbor selection (extension)",
        out_files=("qos_load_tradeoff",),
        paper_says=(
            "Nodes publish capacity/load with their proximity records and "
            "'trade off network distance with forwarding capacity and "
            "current load'; a full treatment is in a companion report, so "
            "the paper gives no figure."
        ),
        we_measure=(
            "Scoring candidates by RTT x (1 + w x utilization) lowers p99 "
            "relay utilization across seeds at a <5% stretch cost; the "
            "single hottest relay is often a default CAN hop the expressway "
            "policy cannot avoid."
        ),
        bench="benchmarks/bench_qos_load.py",
    ),
    FigureReport(
        exp_id="Generality",
        title="The technique on Chord and Pastry (extensions)",
        out_files=("ext_chord_generality", "ext_pastry_generality"),
        paper_says=(
            "'The techniques are generic for overlay networks such as "
            "Pastry, Chord, and eCAN, where there exists flexibility in "
            "selecting routing neighbors'; the appendix gives the mapping "
            "(landmark number as storage key on Chord, nodeId prefixes as "
            "regions on Pastry).  No figures in the paper."
        ),
        we_measure=(
            "Both ports show the same ordering as eCAN: soft-state matches "
            "the oracle and beats random neighbor choice.  The margin is "
            "dramatic on Pastry (~5x, base-4 prefix routing gives many "
            "high-choice hops) and modest on Chord (~1.4x, a binary ring "
            "spends more hops in low-choice terminal intervals) -- "
            "consistent with the known dependence of proximity selection "
            "on prefix base."
        ),
        bench="benchmarks/bench_ext_chord_generality.py / bench_ext_pastry_generality.py",
    ),
    FigureReport(
        exp_id="S5.4 refinements",
        title="Landmark groups / hierarchical landmarks / SVD (extensions)",
        out_files=("ext_ranking_refinements",),
        paper_says=(
            "Three sketched optimizations to shrink the second gap: join "
            "positions from landmark groups to reduce false clustering, "
            "hierarchical (global + localized) landmark spaces, and SVD "
            "over many landmarks to suppress measurement noise."
        ),
        we_measure=(
            "Under per-probe measurement jitter, group-joined ranking "
            "helps at probe budget 1 and SVD helps at larger budgets, but "
            "all effects are modest: a handful of RTT probes already "
            "forgives most ranking error.  That is the paper's own hybrid "
            "insight, and why it relegates these techniques to future "
            "work on the (small) second gap."
        ),
        bench="benchmarks/bench_ext_ranking_refinements.py",
    ),
    FigureReport(
        exp_id="Placement",
        title="Landmark placement strategies (extension)",
        out_files=("ext_landmark_placement",),
        paper_says=(
            "Landmarks are simply 'randomly scattered in the Internet'; "
            "the binning literature sometimes argues for well-separated or "
            "infrastructure-hosted landmarks."
        ),
        we_measure=(
            "Random, backbone-hosted and greedy max-min-separated "
            "placements land in the same quality band once a few RTT "
            "probes are in the loop -- placement is second-order, "
            "validating the paper's untuned choice."
        ),
        bench="benchmarks/bench_ext_landmark_placement.py",
    ),
    FigureReport(
        exp_id="S5.1 cost",
        title="Per-join message bill of maintaining global state (extension)",
        out_files=("ext_join_cost",),
        paper_says=(
            "'Each node will appear in a maximum of log(N) such maps ... "
            "this, we believe, is not a big issue.'  No figure."
        ),
        we_measure=(
            "The itemized per-join bill (landmark probes + join routing + "
            "publication + map lookups + RTT confirmation) grows ~2x while "
            "the overlay grows 8x -- clearly polylogarithmic; RTT "
            "confirmation probes dominate, exactly the knob Figures 10-13 "
            "sweep."
        ),
        bench="benchmarks/bench_ext_join_cost.py",
    ),
    FigureReport(
        exp_id="S5.2 policies",
        title="Maintenance-policy spectrum under churn (extension)",
        out_files=("ext_churn_policies",),
        paper_says=(
            "Three sketched points on the laziness spectrum: reactive "
            "deletion on failed use, periodic polling by map owners, "
            "proactive deregistration at departure.  No figure."
        ),
        we_measure=(
            "Under mostly-ungraceful churn: reactive keeps the maps "
            "cleanest for free, periodic buys cleanliness with ping "
            "traffic, proactive only covers the graceful minority.  Final "
            "stretch is policy-insensitive -- stale records cost wasted "
            "probes, not route quality, because the hybrid RTT-confirms "
            "candidates before installing them."
        ),
        bench="benchmarks/bench_ext_churn_policies.py",
    ),
    FigureReport(
        exp_id="Fault tolerance",
        title="Mass simultaneous crashes with lazy repair (extension)",
        out_files=("ext_failure_resilience",),
        paper_says=(
            "'We choose a 2-dimensional eCAN to give a reasonable "
            "fault-tolerance capability.'  No figure."
        ),
        we_measure=(
            "With up to half the members crashing at once, routing success "
            "stays at 100% (the CAN invariant keeps every key owned and "
            "greedy + lazy repair always completes); stretch degrades only "
            "mildly and repair traffic scales with the crash fraction."
        ),
        bench="benchmarks/bench_ext_failure_resilience.py",
    ),
]

HEADER = """\
# EXPERIMENTS — paper vs. measured

Regenerate everything with:

```bash
pytest benchmarks/ --benchmark-only                     # quick scale (default)
REPRO_SCALE=medium pytest benchmarks/ --benchmark-only  # the scale shown below
python -m repro report                                  # rewrite this file from benchmarks/results_medium/
REPRO_BENCH_DIR=benchmarks/out python -m repro report   # ... or from the run that came last
```

The OCR of the paper available to this reproduction stripped nearly all
digits; DESIGN.md documents every reconstructed parameter (topologies
~10k nodes, 4096-node overlays, 15 landmarks, 10 RTT probes, manual
latencies 100/20/5.5/1 ms). Absolute numbers therefore cannot be
compared digit-for-digit; the reproduction target is the *shape* of
each result -- who wins, by what factor class, and how curves move with
each parameter.

Scales: `quick` (default; ~1k-node topologies, 192-256-node overlays,
~2 min for the whole suite), `medium` (full ~10k-node topologies,
1024-node overlays, ~30 min) and `paper` (4096-node overlays, 2N route
samples). The tables below are the `medium` archive kept in
`benchmarks/results_medium/`, the run the "We measure" paragraphs
describe -- the scale is printed in each table's title line.
"""


def render() -> str:
    """EXPERIMENTS.md content assembled from reports + bench outputs."""
    parts = [HEADER]
    for report in REPORTS:
        parts.append(f"\n## {report.exp_id}: {report.title}\n")
        parts.append(f"**Paper says.** {report.paper_says}\n")
        parts.append(f"**We measure.** {report.we_measure}\n")
        parts.append(f"**Bench.** `{report.bench}`\n")
        for name in report.out_files:
            path = OUT_DIR / f"{name}.txt"
            if path.exists():
                parts.append("```\n" + path.read_text().rstrip() + "\n```\n")
            else:
                parts.append(
                    f"*(run the bench to produce `benchmarks/out/{name}.txt`)*\n"
                )
    return "\n".join(parts)


def main() -> None:
    """Rewrite EXPERIMENTS.md in place."""
    TARGET.write_text(render())
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
