"""Figure 2: eCAN routing hops versus basic CAN of higher dimension.

The paper shows that a 2-dimensional eCAN ("EXP") reaches O(log N)
logical hops and beats plain CAN even at dimensionality 5, whose hops
grow as ~(d/4) N^(1/d).  We rebuild the sweep: for each overlay size
N, join N nodes into (a) plain CANs of each dimensionality and (b) a
2-d eCAN with random expressway neighbors, then measure mean logical
hops over random member pairs.

Physical hosts are irrelevant to hop counts, so joins use a synthetic
host id and no landmark machinery.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import Scale, current_scale
from repro.overlay import CanOverlay, EcanOverlay


def _measure_hops(overlay, node_ids, samples: int, rng) -> float:
    nodes = overlay.nodes
    ids = np.asarray(node_ids)
    hops = []
    for _ in range(samples):
        src, dst = rng.choice(ids, size=2, replace=False)
        target = nodes[int(dst)].zone.center()
        result = overlay.route(int(src), target)
        if result.success:
            hops.append(result.hops)
    return float(np.mean(hops)) if hops else float("nan")


def build_can(num_nodes: int, dims: int, seed: int = 0) -> CanOverlay:
    """A plain CAN of ``num_nodes`` synthetic members."""
    can = CanOverlay(dims=dims, rng=np.random.default_rng(seed))
    for i in range(num_nodes):
        can.join(i, host=i)
    return can


def build_ecan(num_nodes: int, dims: int = 2, seed: int = 0) -> EcanOverlay:
    """An eCAN of ``num_nodes`` synthetic members (random expressways)."""
    ecan = EcanOverlay(dims=dims, rng=np.random.default_rng(seed))
    for i in range(num_nodes):
        ecan.join(i, host=i)
    return ecan


def run(scale: Scale = None, seed: int = 0, samples: int = None) -> list:
    """Rows: {"variant", "N", "mean_hops"} for every Figure-2 series."""
    if scale is None:
        scale = current_scale()
    if samples is None:
        samples = min(400, scale.route_samples)
    rng = np.random.default_rng(seed)
    rows = []
    for num_nodes in scale.fig2_sweep:
        for dims in scale.fig2_dims:
            can = build_can(num_nodes, dims, seed=seed)
            rows.append(
                {
                    "variant": f"CAN, d={dims}",
                    "N": num_nodes,
                    "mean_hops": _measure_hops(can, range(num_nodes), samples, rng),
                }
            )
        ecan = build_ecan(num_nodes, dims=2, seed=seed)
        rows.append(
            {
                "variant": "eCAN (EXP), d=2",
                "N": num_nodes,
                "mean_hops": _measure_hops(ecan, range(num_nodes), samples, rng),
            }
        )
    return rows
