"""§5.2 ablation: publish/subscribe versus periodic polling.

The paper argues re-selection should be demand-driven: "the frequency
of the checking ideally should be conducted in a demand-driven
fashion...  we propose to introduce publish/subscribe functionality".
This ablation quantifies the claim.  Starting from the same built
overlay, a wave of new nodes joins under two maintenance regimes:

* **pubsub** -- every existing node subscribes to the regions behind
  its expressway entries with a closer-candidate condition; matching
  joins trigger targeted re-selection of exactly the affected entry;
* **polling** -- nodes periodically re-run full table construction
  ("a node should periodically check the target high-order zone's
  map"), whether anything changed or not.

Reported: messages spent on maintenance during the churn phase and
the final routing stretch.  Equal-quality tables for far fewer
messages is the expected outcome.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import Scale, current_scale
from repro.experiments.fig10_13_stretch_rtts import build_overlay

#: message categories that count as maintenance traffic
MAINTENANCE_CATEGORIES = (
    "pubsub_subscribe",
    "pubsub_notify",
    "pubsub_unsubscribe",
    "neighbor_probe",
    "neighbor_select",
    "softstate_lookup",
    "table_repair",
    "maintenance_ping",
)


def _maintenance_messages(delta: dict) -> int:
    return sum(delta.get(cat, 0) for cat in MAINTENANCE_CATEGORIES)


def run_mode(
    mode: str,
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
) -> dict:
    """One churn phase under ``mode`` ("pubsub" | "polling" | "none");
    polling rebuilds every table four times over the phase."""
    if scale is None:
        scale = current_scale()
    base_nodes = scale.overlay_nodes
    joins = max(8, scale.churn_events)

    overlay = build_overlay(
        topology,
        latency,
        base_nodes,
        policy="softstate",
        topo_scale=scale.topo_scale,
        seed=seed,
    )
    network = overlay.network
    stats = network.stats

    if mode == "pubsub":
        for node_id in list(overlay.node_ids):
            overlay.enable_adaptive(node_id)
    before = stats.snapshot()

    poll_every = max(1, joins // 4)
    for i in range(joins):
        overlay.add_node()
        if mode == "polling" and (i + 1) % poll_every == 0:
            for node_id in list(overlay.node_ids):
                overlay.ecan.build_table(node_id)

    # exclude ordinary join traffic from the maintenance accounting:
    # measure a control joining phase cost on the "none" mode instead
    delta = stats.delta(before)
    rng = np.random.default_rng(seed + 23)
    stretch = overlay.measure_stretch(
        samples=min(scale.route_samples, 2 * len(overlay)), rng=rng
    )
    return {
        "mode": mode,
        "final_nodes": len(overlay),
        "maintenance_messages": _maintenance_messages(delta),
        "notifications": delta.get("pubsub_notify", 0),
        "mean_stretch": float(stretch.mean()),
    }


def run(
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
) -> list:
    """Rows for the three modes: none (stale tables), polling, pubsub."""
    return [
        run_mode(mode, topology, latency, scale, seed)
        for mode in ("none", "polling", "pubsub")
    ]
