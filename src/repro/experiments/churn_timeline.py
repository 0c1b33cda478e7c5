"""Churn timelines under the three maintenance policies.

§5.2: "The global state can be lazily maintained.  In the most
reactive case, departed nodes are deleted ... only when they are
selected as routing neighbor replacements and later found
un-reachable.  Alternatively, each owner of the map information can
periodically poll the liveliness of the nodes.  The most proactive
measure is to update the map when a node is about to depart."

This runner subjects identical overlays to the same churn trace under
each policy (with ungraceful departures so the policies actually
differ) and samples routing stretch, stale map entries and message
spend over time.
"""

from __future__ import annotations

import numpy as np

from repro.core.builder import TopologyAwareOverlay
from repro.core.churn import ChurnDriver, poisson_churn
from repro.core.config import OverlayParams
from repro.experiments.common import Scale, current_scale, get_network
from repro.softstate.maintenance import MaintenancePolicy

#: trace length in the sim clock's unit, ms -- the unit the maintenance
#: driver's confirmation backoffs advance the shared clock by.  A trace
#: laid over fewer units than one sweep's backoffs is overtaken by the
#: first poll, and the periodic timer never fires again.
DURATION_MS = 120_000.0
#: sim ms between the periodic policy's sweeps: six over the trace
POLL_INTERVAL_MS = 20_000.0
#: share of departures that announce themselves
GRACEFUL_FRACTION = 0.2


def run_policy(
    policy: MaintenancePolicy,
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
) -> dict:
    """One churn run; returns the timeline plus end-state summary."""
    if scale is None:
        scale = current_scale()
    network = get_network(topology, latency, scale.topo_scale, seed)
    overlay = TopologyAwareOverlay(
        network,
        OverlayParams(
            num_nodes=scale.overlay_nodes, policy="softstate", seed=seed + 71
        ),
        maintenance_policy=policy,
    )
    overlay.build()
    overlay.maintenance.poll_interval = POLL_INTERVAL_MS
    overlay.maintenance.start()

    rng = np.random.default_rng(seed + 73)
    rate = scale.churn_events / DURATION_MS / 2
    events = poisson_churn(rng, DURATION_MS, join_rate=rate, leave_rate=rate)
    driver = ChurnDriver(
        overlay, rng=rng, graceful_fraction=GRACEFUL_FRACTION,
        min_nodes=max(8, scale.overlay_nodes // 4),
    )
    stats = overlay.network.stats
    before = stats.snapshot()
    timeline = driver.run(
        events, measure_every=max(1, len(events) // 4), stretch_samples=48
    )
    overlay.maintenance.stop()
    delta = stats.delta(before)
    return {
        "policy": policy.value,
        "timeline": timeline,
        "final_stretch": timeline[-1]["mean_stretch"],
        "final_stale_entries": timeline[-1]["stale_entries"],
        "churn_messages": sum(delta.values()),
        "maintenance_pings": delta.get("maintenance_ping", 0),
        "wasted_probes": delta.get("neighbor_probe_failed", 0),
    }


def run(
    topology: str = "tsk-large",
    latency: str = "manual",
    scale: Scale = None,
    seed: int = 0,
) -> list:
    """Summary rows for the three §5.2 policies under identical churn."""
    rows = []
    for policy in (
        MaintenancePolicy.REACTIVE,
        MaintenancePolicy.PERIODIC,
        MaintenancePolicy.PROACTIVE,
    ):
        result = run_policy(policy, topology, latency, scale, seed)
        rows.append(
            {
                "policy": result["policy"],
                "final_stretch": result["final_stretch"],
                "stale_entries": result["final_stale_entries"],
                "churn_messages": result["churn_messages"],
                "maintenance_pings": result["maintenance_pings"],
                "wasted_probes": result["wasted_probes"],
            }
        )
    return rows
