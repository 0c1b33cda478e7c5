"""Figures 3-6: finding the physically nearest neighbor.

Setup (paper §4): a 2-dimensional CAN containing *all* nodes of the
topology, 15 random landmarks, and a set of random query nodes.  For
each query node, three searches look for its nearest neighbor:

* expanding-ring search (ERS) -- flood outward, probing everyone;
* landmark clustering alone -- the first point of the hybrid curve;
* the hybrid landmark+RTT search -- rank by landmark-vector distance,
  probe the top candidates.

The metric is *stretch*: latency to the node found over latency to
the true nearest node, averaged over queries, as a function of the
number of RTT measurements spent.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import Scale, bulk_vectors, current_scale, get_network
from repro.overlay import CanOverlay
from repro.proximity import expanding_ring_search, hybrid_search, select_landmarks
from repro.proximity.landmarks import LandmarkSpace


class NearestNeighborTestbed:
    """Everything the Figure 3-6 searches share for one topology."""

    def __init__(
        self,
        topology: str,
        latency: str = "generated",
        topo_scale: float = None,
        seed: int = 0,
    ):
        if topo_scale is None:
            topo_scale = current_scale().topo_scale
        self.network = get_network(topology, latency, topo_scale, seed)
        self.rng = np.random.default_rng(seed + 1)
        # the paper's 15 landmarks
        self.landmarks = select_landmarks(self.network, 15, self.rng)
        self.space = LandmarkSpace(self.landmarks)
        # the paper puts *all* topology nodes into the search CAN
        self.hosts = np.arange(self.network.num_nodes)
        self.vectors = bulk_vectors(self.network, self.landmarks, self.hosts)
        self._can = None
        self._coords = None

    @property
    def can(self) -> CanOverlay:
        """All-host CAN, built lazily (only ERS needs it)."""
        if self._can is None:
            self._can = CanOverlay(dims=2, rng=np.random.default_rng(17))
            for i, host in enumerate(self.hosts):
                self._can.join(int(i), int(host))
        return self._can

    @property
    def coords(self) -> np.ndarray:
        """GNP coordinates for every host (lazily embedded).

        The landmark RTTs were already measured for the vectors, so
        only the per-host solve runs here; the ranking is the
        'coordinate-based' related-work baseline."""
        if self._coords is None:
            from repro.proximity.coordinates import CoordinateSystem

            system = CoordinateSystem(dims=min(5, self.landmarks.count - 1))
            system.fit_landmarks(self.network, self.landmarks.hosts)
            self._coords = np.array(
                [system.solve_from_rtts(v) for v in self.vectors]
            )
        return self._coords

    def sample_queries(self, count: int) -> np.ndarray:
        return self.rng.choice(len(self.hosts), size=count, replace=False)

    def true_nearest_latency(self, query_index: int) -> float:
        """One-way latency to the true nearest distinct host."""
        host = int(self.hosts[query_index])
        lat = self.network.latencies_from(host)[self.hosts].astype(np.float64)
        lat[query_index] = np.inf
        # co-located hosts (zero latency) are legitimate nearest neighbors
        return float(lat.min())

    # -- searches ---------------------------------------------------------

    def hybrid_curve(self, query_index: int, budget: int, rank: str = "vector"):
        host = int(self.hosts[query_index])
        coordinates = self.coords if rank == "coordinates" else None
        query_coords = coordinates[query_index] if rank == "coordinates" else None
        return hybrid_search(
            self.network,
            host,
            self.vectors[query_index],
            self.hosts,
            self.vectors,
            budget=budget,
            rank=rank,
            landmark_space=self.space,
            rng=self.rng,
            coordinates=coordinates,
            query_coords=query_coords,
        )

    def ers_curve(self, query_index: int, budget: int):
        return expanding_ring_search(
            self.network, self.can, int(query_index), max_probes=budget
        )


def _stretch_rows(testbed, queries, budgets, curves, method: str) -> list:
    rows = []
    for budget in budgets:
        stretches = []
        for q, curve in zip(queries, curves):
            true_nn = testbed.true_nearest_latency(int(q))
            if true_nn <= 0:
                continue  # co-located true nearest: stretch undefined
            stretches.append(curve.stretch_after(budget, true_nn))
        stretches = [s for s in stretches if np.isfinite(s)]
        rows.append(
            {
                "method": method,
                "probes": budget,
                "mean_stretch": float(np.mean(stretches)) if stretches else float("nan"),
                "queries": len(stretches),
            }
        )
    return rows


def run(
    topology: str,
    latency: str = "generated",
    scale: Scale = None,
    seed: int = 0,
    methods: tuple = ("lmk+rtt", "ers"),
) -> list:
    """Rows: {"method", "probes", "mean_stretch"} for one topology.

    ``topology="tsk-large"`` reproduces Figures 3-4,
    ``topology="tsk-small"`` Figures 5-6.  The ``order`` method (the
    pure Topologically-Aware-CAN ranking) is available as an extra.
    """
    if scale is None:
        scale = current_scale()
    testbed = NearestNeighborTestbed(
        topology, latency, scale.topo_scale, seed=seed
    )
    queries = testbed.sample_queries(scale.nn_queries)
    rows = []
    if "lmk+rtt" in methods:
        budget = max(scale.hybrid_budgets)
        curves = [testbed.hybrid_curve(int(q), budget) for q in queries]
        rows += _stretch_rows(testbed, queries, scale.hybrid_budgets, curves, "lmk+rtt")
    if "order" in methods:
        budget = max(scale.hybrid_budgets)
        curves = [testbed.hybrid_curve(int(q), budget, rank="order") for q in queries]
        rows += _stretch_rows(
            testbed, queries, scale.hybrid_budgets, curves, "lmk-order"
        )
    if "gnp" in methods:
        budget = max(scale.hybrid_budgets)
        curves = [
            testbed.hybrid_curve(int(q), budget, rank="coordinates")
            for q in queries
        ]
        rows += _stretch_rows(testbed, queries, scale.hybrid_budgets, curves, "gnp")
    if "ers" in methods:
        budget = max(scale.ers_budgets)
        curves = [testbed.ers_curve(int(q), budget) for q in queries]
        rows += _stretch_rows(testbed, queries, scale.ers_budgets, curves, "ers")
    return rows
