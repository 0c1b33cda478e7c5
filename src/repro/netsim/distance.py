"""Cached shortest-path distance oracle.

Every "RTT measurement" in the simulation bottoms out here: the
latency between two physical nodes is the weighted shortest-path
distance over the topology.  The oracle keeps an LRU cache of
single-source distance rows and supports bulk multi-source queries
(used to precompute the overlay-host distance matrix) through scipy's
C Dijkstra implementation.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.netsim.latency import LatencyModel
from repro.netsim.transit_stub import Topology


class DistanceOracle:
    """Shortest-path distances over a weighted undirected graph.

    Parameters
    ----------
    graph:
        ``(N, N)`` scipy CSR adjacency matrix with symmetric weights.
    max_cached_rows:
        Maximum number of single-source rows retained (LRU).
    """

    def __init__(self, graph: csr_matrix, max_cached_rows: int = 4096):
        self.graph = graph
        self.num_nodes = graph.shape[0]
        self.max_cached_rows = max_cached_rows
        self._rows: OrderedDict = OrderedDict()

    @classmethod
    def from_topology(
        cls, topology: Topology, latency_model: LatencyModel
    ) -> "DistanceOracle":
        """Build an oracle from a topology and a latency model."""
        w = latency_model.weights(topology)
        u, v = topology.edges[:, 0], topology.edges[:, 1]
        n = topology.num_nodes
        graph = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        )
        return cls(graph)

    def is_connected(self) -> bool:
        """True if the underlying graph has a single component."""
        n_components, _ = connected_components(self.graph, directed=False)
        return n_components == 1

    def row(self, source: int) -> np.ndarray:
        """Distances from ``source`` to every node (float32, read-only)."""
        source = int(source)
        cached = self._rows.get(source)
        if cached is not None:
            self._rows.move_to_end(source)
            return cached
        dist = dijkstra(self.graph, directed=False, indices=source)
        dist = dist.astype(np.float32)
        dist.flags.writeable = False
        self._rows[source] = dist
        if len(self._rows) > self.max_cached_rows:
            self._rows.popitem(last=False)
        return dist

    def rows(self, sources) -> np.ndarray:
        """Distances from each of ``sources`` to every node.

        Bulk variant of :meth:`row` that shares the LRU row cache both
        ways: rows already cached are reused (Dijkstra runs only for
        the misses) and freshly computed rows are inserted, so later
        :meth:`row`/:meth:`distance` calls for the same sources are
        cache hits.  The returned matrix is a private writable copy,
        ``(0, num_nodes)`` when ``sources`` is empty.
        """
        sources = np.asarray(sources, dtype=np.int64)
        unique = []
        seen = set()
        for s in sources:
            s = int(s)
            if s not in seen:
                seen.add(s)
                unique.append(s)
        have: dict = {}
        missing = []
        for s in unique:
            cached = self._rows.get(s)
            if cached is not None:
                self._rows.move_to_end(s)
                have[s] = cached
            else:
                missing.append(s)
        if missing:
            dist = dijkstra(
                self.graph, directed=False, indices=np.asarray(missing, dtype=np.int64)
            )
            dist = np.atleast_2d(dist).astype(np.float32)
            for s, fresh in zip(missing, dist):
                fresh = fresh.copy()  # detach from the bulk matrix
                fresh.flags.writeable = False
                have[s] = fresh
                self._rows[s] = fresh
                if len(self._rows) > self.max_cached_rows:
                    self._rows.popitem(last=False)
        if not len(sources):
            return np.empty((0, self.num_nodes), dtype=np.float32)
        return np.vstack([have[int(s)] for s in sources])

    def distance(self, u: int, v: int) -> float:
        """One-way latency (ms) between physical nodes ``u`` and ``v``."""
        if u == v:
            return 0.0
        cached = self._rows.get(u)
        if cached is not None:
            self._rows.move_to_end(u)
            return float(cached[v])
        return float(self.row(u)[v])

    def cache_info(self) -> dict:
        """Diagnostic view of the row cache."""
        return {"rows": len(self._rows), "capacity": self.max_cached_rows}
