"""Generality: the soft-state technique ported to Chord and Pastry.

The paper claims its machinery "is generic for overlay networks such
as Pastry, Chord, and eCAN" and the appendix gives the mapping
(landmark number as the storage key on Chord, nodeId prefixes as
regions on Pastry).  Both ports are geometries over the one ring
engine (:func:`repro.softstate.ring.build_soft_state_overlay`), so one
runner fills the slots of either the proximity-blind way(s), from the
soft-state maps + RTT probes, and with the oracle-closest node, over
the same membership.

Expected shape: the same ordering as on eCAN -- soft-state beats
random slot choice and tracks the oracle.  The margin is large on
Pastry (base-4 prefix routing gives proximity selection many
high-choice hops) and smaller on Chord (a binary ring has ~2x more
low-choice terminal hops, a known property of low-base prefix
overlays).
"""

from __future__ import annotations

import numpy as np

from repro.chord.softstate import build_soft_state_ring
from repro.experiments.common import Scale, current_scale, get_network
from repro.netsim import Network
from repro.pastry import build_soft_state_pastry

#: port -> (builder, the rows' policy column, policies compared)
PORTS = {
    "chord": (
        build_soft_state_ring,
        "finger policy",
        ("successor", "random", "softstate", "optimal"),
    ),
    "pastry": (
        build_soft_state_pastry,
        "slot policy",
        ("random", "softstate", "optimal"),
    ),
}


def default_nodes(scale: Scale) -> int:
    """Ring size at ``scale``: the overlay size, capped at 192."""
    return min(192, scale.overlay_nodes)


def run(
    port: str,
    scale: Scale = None,
    num_nodes: int = None,
    seed: int = 0,
    **geometry,
) -> list:
    """Rows: {<policy column>, "mean_stretch", "messages"} per policy.

    Every policy gets its own :class:`Network` over the shared topology,
    so ``messages`` is that build's and that measurement's bill alone.
    ``seed`` draws the membership; ``geometry`` (``bits`` / ``digits``)
    goes to the port's builder.
    """
    if scale is None:
        scale = current_scale()
    if num_nodes is None:
        num_nodes = default_nodes(scale)
    build, column, policies = PORTS[port]
    shared = get_network("tsk-large", "manual", scale.topo_scale, 0)
    rows = []
    for policy in policies:
        network = Network(shared.topology, shared.latency_model)
        ring, _ = build(
            network, num_nodes, policy_name=policy, seed=seed, **geometry
        )
        stretch = ring.measure_stretch(
            min(600, scale.route_samples), rng=np.random.default_rng(11)
        )
        rows.append(
            {
                column: policy,
                "mean_stretch": float(stretch.mean()),
                "messages": network.stats.total(),
            }
        )
    return rows
