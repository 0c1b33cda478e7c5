"""Shared infrastructure for experiment runners.

Scale presets
-------------
``quick``
    CI-friendly: ~1k-node topologies, 192-node overlays, short probe
    sweeps.  Shapes (who wins, monotonicity, crossovers) already hold
    at this size.
``paper``
    Full reconstruction of the paper's setup: ~10k-node topologies,
    4096-node overlays, 2N route samples.  Select it with
    ``REPRO_SCALE=paper``.

Networks are memoised per (topology, latency, scale, seed) so a bench
suite touches each Dijkstra-heavy build once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.config import NetworkParams, make_network


@dataclass(frozen=True)
class Scale:
    """Sizing knobs shared by all experiment runners."""

    name: str
    topo_scale: float
    overlay_nodes: int
    #: overlay sizes for the Figure 14/15 N-sweep
    node_sweep: tuple
    #: N values for the Figure 2 hop-count sweep
    fig2_sweep: tuple
    #: CAN dimensionalities compared against eCAN in Figure 2
    fig2_dims: tuple
    route_samples: int
    #: nearest-neighbor queries per Figure 3-6 series
    nn_queries: int
    ers_budgets: tuple
    hybrid_budgets: tuple
    #: RTT-probe sweep for Figures 10-13
    rtt_sweep: tuple
    #: landmark-count series for Figures 10-13
    landmark_sweep: tuple
    #: condense-rate sweep for Figure 16
    condense_sweep: tuple
    #: churn events for the pub/sub ablation
    churn_events: int


SCALES = {
    "quick": Scale(
        name="quick",
        topo_scale=0.5,
        overlay_nodes=192,
        node_sweep=(48, 96, 192, 384),
        fig2_sweep=(64, 256, 1024),
        fig2_dims=(2, 3, 4),
        route_samples=384,
        nn_queries=24,
        ers_budgets=(10, 25, 50, 100, 200, 400),
        hybrid_budgets=(1, 2, 4, 8, 16, 32),
        rtt_sweep=(1, 2, 5, 10, 20),
        landmark_sweep=(5, 15),
        condense_sweep=(1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0),
        churn_events=60,
    ),
    # closer-to-paper numbers at workstation-friendly runtimes (~20 min
    # for the whole bench suite): full-size topologies, 1k overlays
    "medium": Scale(
        name="medium",
        topo_scale=1.0,
        overlay_nodes=1024,
        node_sweep=(128, 256, 512, 1024),
        fig2_sweep=(256, 1024, 4096, 16384),
        fig2_dims=(2, 3, 4, 5),
        route_samples=2048,
        nn_queries=50,
        ers_budgets=(10, 50, 100, 250, 500, 1000, 2000),
        hybrid_budgets=(1, 2, 5, 10, 20, 40, 80),
        rtt_sweep=(1, 2, 5, 10, 20, 40),
        landmark_sweep=(5, 15),
        condense_sweep=(1.0 / 1024, 1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0),
        churn_events=150,
    ),
    "paper": Scale(
        name="paper",
        topo_scale=1.0,
        overlay_nodes=4096,
        node_sweep=(512, 1024, 2048, 4096, 8192),
        fig2_sweep=(1024, 4096, 16384, 32768),
        fig2_dims=(2, 3, 4, 5),
        route_samples=8192,
        nn_queries=100,
        ers_budgets=(10, 50, 100, 250, 500, 1000, 2000),
        hybrid_budgets=(1, 2, 5, 10, 20, 40, 80),
        rtt_sweep=(1, 2, 5, 10, 20, 40),
        landmark_sweep=(5, 15, 30),
        condense_sweep=(1.0 / 1024, 1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0),
        churn_events=400,
    ),
}


def current_scale() -> Scale:
    """Scale preset selected by the ``REPRO_SCALE`` environment knob."""
    name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r}; known presets: {sorted(SCALES)}"
        ) from None


@lru_cache(maxsize=16)
def get_network(
    topology: str, latency: str, topo_scale: float, seed: int = 0
):
    """Memoised physical network (shared across runners in a process)."""
    return make_network(
        NetworkParams(
            topology=topology, latency=latency, topo_scale=topo_scale, seed=seed
        )
    )


def bulk_vectors(network, landmark_set, hosts, charge: bool = True) -> np.ndarray:
    """Landmark vectors for many hosts at once.

    Equivalent to per-host :func:`repro.proximity.landmarks.measure_vector`
    (RTT symmetry lets the Dijkstra run from the landmark side), but a
    single bulk computation.  Probe accounting stays faithful.
    """
    hosts = np.asarray(hosts, dtype=np.int64)
    rows = network.oracle.rows(landmark_set.hosts)  # (L, N) one-way
    if charge:
        network.stats.count("landmark_probe", len(hosts) * landmark_set.count)
    return 2.0 * rows[:, hosts].T.astype(np.float64)


def format_table(rows, columns=None) -> str:
    """Render rows as an aligned text table (bench output), floats to
    three decimals."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value):
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    table = [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), max(len(line[i]) for line in table))
        for i, c in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in table
    )
    return f"{header}\n{rule}\n{body}"
