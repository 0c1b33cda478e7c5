"""Expanding-ring search: the blind flooding baseline.

The paper evaluates ERS over a 2-dimensional CAN containing *all*
nodes of the topology: starting from the querying node's own CAN
position, rings of increasing overlay hop distance are flooded and
every newly reached node is RTT-probed.  The output of a search is a
*curve* -- the best (smallest) RTT discovered after each probe -- so
one breadth-first sweep yields every point of the paper's
probes-versus-stretch plots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SearchCurve:
    """Best-so-far nearest-neighbor search trajectory.

    ``best_rtt[k]`` is the smallest RTT seen after ``probes[k]``
    measurements, and ``best_host[k]`` the corresponding host.
    """

    probes: np.ndarray
    best_rtt: np.ndarray
    best_host: np.ndarray
    #: search-algorithm label, for experiment tables
    method: str = "search"
    #: overlay/control messages spent in addition to the RTT probes
    control_messages: int = 0

    def __len__(self) -> int:
        return len(self.probes)

    def best_after(self, budget: int):
        """(host, rtt) of the best node found within ``budget`` probes."""
        if len(self.probes) == 0:
            return None, float("inf")
        k = int(np.searchsorted(self.probes, budget, side="right")) - 1
        if k < 0:
            return None, float("inf")
        return int(self.best_host[k]), float(self.best_rtt[k])

    def stretch_after(self, budget: int, nearest_latency: float) -> float:
        """Found-vs-true nearest-neighbor distance ratio at ``budget``.

        ``nearest_latency`` is the one-way latency to the true nearest
        node; a perfect search reaches stretch 1.0.
        """
        _, rtt = self.best_after(budget)
        if not np.isfinite(rtt):
            return float("inf")
        if nearest_latency <= 0:
            return 1.0
        return (rtt / 2.0) / nearest_latency


@dataclass
class _CurveBuilder:
    method: str
    probes: list = field(default_factory=list)
    rtts: list = field(default_factory=list)
    hosts: list = field(default_factory=list)
    _count: int = 0
    _best: float = float("inf")

    def probe(self, network, src_host: int, dst_host: int, category: str) -> None:
        rtt = network.rtt(src_host, dst_host, category=category)
        self.record(rtt, dst_host)

    def record(self, rtt: float, dst_host: int) -> None:
        """Account one (already measured or estimated) probe result."""
        self._count += 1
        if rtt < self._best:
            self._best = rtt
            self.probes.append(self._count)
            self.rtts.append(rtt)
            self.hosts.append(dst_host)

    def failed(self) -> None:
        """A probe that timed out still consumed budget."""
        self._count += 1

    def build(self, control_messages: int = 0) -> SearchCurve:
        return SearchCurve(
            probes=np.asarray(self.probes, dtype=np.int64),
            best_rtt=np.asarray(self.rtts, dtype=np.float64),
            best_host=np.asarray(self.hosts, dtype=np.int64),
            method=self.method,
            control_messages=control_messages,
        )


def expanding_ring_search(
    network,
    can,
    query_node: int,
    max_probes: int = 1000,
) -> SearchCurve:
    """Probe outward ring by ring from ``query_node``'s CAN position.

    ``can`` is a :class:`~repro.overlay.can.CanOverlay` whose members
    stand in for "all nodes in the topology".  Every node reached by
    the flood costs one control message; every distinct host is
    RTT-probed once (``ers_probe``).  Returns the best-so-far curve.
    """
    if query_node not in can.nodes:
        raise KeyError(f"query node {query_node} not in the search CAN")
    src_host = can.nodes[query_node].host
    builder = _CurveBuilder(method="ers")
    visited = {query_node}
    frontier = deque([query_node])
    control = 0
    while frontier and builder._count < max_probes:
        # advance one ring
        next_frontier = deque()
        while frontier and builder._count < max_probes:
            node_id = frontier.popleft()
            for neighbor_id in sorted(can.nodes[node_id].neighbors):
                if neighbor_id in visited:
                    continue
                visited.add(neighbor_id)
                next_frontier.append(neighbor_id)
                control += 1
                host = can.nodes[neighbor_id].host
                if host != src_host:
                    builder.probe(network, src_host, host, "ers_probe")
                    if builder._count >= max_probes:
                        break
        frontier = next_frontier
    return builder.build(control_messages=control)
