"""§6 experiment: trading network distance for forwarding headroom.

Nodes have heterogeneous (Pareto) forwarding capacities.  A skewed
lookup workload is routed over the overlay and per-node forwarding
load accumulates; loads are published into the soft-state; tables are
rebuilt; the workload repeats.  Load-aware selection (``load_weight >
0`` in the policy) should flatten the utilization tail at a modest
stretch cost versus pure proximity selection.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import gini
from repro.core.qos import LoadTracker, pareto_capacities
from repro.experiments.common import Scale, current_scale, get_network
from repro.core.builder import TopologyAwareOverlay
from repro.core.config import OverlayParams
from repro.workloads import zipf_points


def _route_workload(overlay, tracker, keys, rng) -> list:
    """Route a lookup per key from a random member; returns stretches."""
    ids = np.asarray(overlay.node_ids)
    stretches = []
    for key in keys:
        src = int(rng.choice(ids))
        result = overlay.ecan.route(src, tuple(key), category="lookup_route")
        if not result.success:
            continue
        tracker.record_route(result)
        stretch = result.stretch(overlay.ecan.can.nodes, overlay.network)
        if stretch is not None:
            stretches.append(stretch)
    return stretches


def run_weight(
    load_weight: float,
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
) -> dict:
    """One full adapt-then-measure cycle at a given ``load_weight``."""
    if scale is None:
        scale = current_scale()
    messages = min(scale.route_samples, 4 * scale.overlay_nodes)
    network = get_network(topology, latency, scale.topo_scale, seed)
    rng = np.random.default_rng(seed + 31)

    params = OverlayParams(
        num_nodes=scale.overlay_nodes,
        policy="softstate",
        load_weight=load_weight,
        seed=seed + 41,
    )
    overlay = TopologyAwareOverlay(network, params)
    capacities = pareto_capacities(rng, params.num_nodes, alpha=1.2)
    for capacity in capacities:
        overlay.add_node(capacity=float(capacity))

    keys = zipf_points(messages, overlay.ecan.dims, rng, distinct=48)
    tracker = LoadTracker(overlay, window=max(1.0, messages / 10))

    # phase 1: observe load under initial (proximity-only-informed) tables
    _route_workload(overlay, tracker, keys, rng)
    tracker.publish_all()
    # adapt: rebuild tables now that load statistics are published
    for node_id in list(overlay.node_ids):
        overlay.ecan.build_table(node_id)
    # phase 2: measure under adapted tables
    tracker.reset_window()
    stretches = _route_workload(overlay, tracker, keys, rng)
    tracker.publish_all()

    utilization = np.array(list(tracker.utilization().values()))
    return {
        "load_weight": load_weight,
        "mean_stretch": float(np.mean(stretches)) if stretches else float("nan"),
        "max_utilization": float(utilization.max()) if utilization.size else 0.0,
        "p99_utilization": float(np.percentile(utilization, 99))
        if utilization.size
        else 0.0,
        "load_gini": gini(utilization) if utilization.size else 0.0,
    }


def run(
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
    weights: tuple = (0.0, 0.5, 2.0),
) -> list:
    """Rows comparing proximity-only and load-aware selection."""
    return [run_weight(w, topology, latency, scale, seed) for w in weights]


def run_seeds(
    scale: Scale = None,
    seeds: tuple = (0, 1, 2),
    weights: tuple = (0.0, 0.5, 2.0),
) -> list:
    """:func:`run` pooled over ``seeds``, each row tagged with its seed
    (one seed's utilization tail is too noisy to compare weights on)."""
    return [
        {"seed": seed, **row}
        for seed in seeds
        for row in run(scale=scale, seed=seed, weights=weights)
    ]
