"""Route results, stretch, and the one neighbor-policy interface.

Every overlay fills its table *slots* -- ``(level, cell)`` on eCAN,
the finger index on Chord, ``(row, digit)`` on Pastry -- through one
:class:`NeighborPolicy`: :class:`RandomNeighborPolicy` (the paper's
baseline), :class:`ClosestNeighborPolicy` (the oracle *optimal*) or
:class:`~repro.softstate.neighbor_selection.SoftStateNeighborPolicy`
(the paper's contribution: a map lookup, then RTT probes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NeighborPolicy:
    """Strategy for choosing a table entry among a slot's candidates."""

    #: short name used in experiment tables
    name = "base"

    def select(self, overlay, node_id: int, slot, candidates):
        """Pick an entry for ``node_id``'s ``slot`` from ``candidates``.

        ``candidates`` is a non-empty list of member node ids; hosts
        are read through ``overlay.nodes``.  May return ``None`` to
        decline: eCAN then takes a random candidate, a ring the first
        member of the slot's interval.  Implementations charge their
        own measurement cost.
        """
        raise NotImplementedError


class RandomNeighborPolicy(NeighborPolicy):
    """Baseline: a uniformly random candidate."""

    name = "random"

    def __init__(self, rng):
        self.rng = rng

    def select(self, overlay, node_id, slot, candidates):
        return candidates[int(self.rng.integers(0, len(candidates)))]


class ClosestNeighborPolicy(NeighborPolicy):
    """Oracle optimal: the physically closest candidate (free of charge).

    Models the limit of infinitely many RTT measurements; the paper's
    "optimal" curves use this policy.
    """

    name = "optimal"

    def __init__(self, network):
        self.network = network

    def select(self, overlay, node_id, slot, candidates):
        nodes = overlay.nodes
        latency = self.network.latency
        host = nodes[node_id].host
        return min(candidates, key=lambda c: (latency(host, nodes[c].host), c))


def sample_stretch(ids, samples: int, rng, stretch_of) -> np.ndarray:
    """Stretch over up to ``4 * samples`` random distinct member pairs.

    ``stretch_of(src, dst)`` routes one pair and returns its stretch or
    None; sampling stops once ``samples`` stretches are collected.
    """
    ids = np.array(ids)
    stretches = []
    attempts = 0
    while len(stretches) < samples and attempts < 4 * samples:
        attempts += 1
        src, dst = rng.choice(ids, size=2, replace=False)
        stretch = stretch_of(int(src), int(dst))
        if stretch is not None:
            stretches.append(stretch)
    return np.asarray(stretches)


@dataclass(slots=True)
class RouteResult:
    """Outcome of routing a message through an overlay.

    Attributes
    ----------
    path:
        Sequence of overlay node ids visited, starting at the source.
    owner:
        Node id owning the destination point (None on failure).
    success:
        False if routing hit the hop budget or a dead end.
    expressway_hops / can_hops:
        For eCAN routes, the breakdown between high-order (expressway)
        jumps and default CAN hops; both zero for plain CAN routes.
    repairs:
        Number of routing-table entries repaired on the fly.
    retries:
        Extra delivery attempts beyond the first, per hop, summed over
        the route (nonzero only with faults armed and a retry policy).
    degraded:
        Expressway entries abandoned mid-route after failed delivery
        attempts (the route fell back to greedy CAN neighbors).
    """

    path: list = field(default_factory=list)
    owner: int = None
    success: bool = True
    expressway_hops: int = 0
    can_hops: int = 0
    repairs: int = 0
    retries: int = 0
    degraded: int = 0

    @property
    def hops(self) -> int:
        """Number of overlay forwarding hops."""
        return len(self.path) - 1

    def host_path(self, nodes) -> list:
        """Physical hosts along the route, read from the ``nodes`` map."""
        return [nodes[n].host for n in self.path]

    def latency(self, nodes, network) -> float:
        """Accumulated one-way physical latency along the route (ms)."""
        return network.path_latency(self.host_path(nodes))

    def stretch(self, nodes, network):
        """Path latency over the direct source-to-owner latency.

        None when the route failed or both ends share a host (zero
        direct latency).
        """
        if not self.success:
            return None
        direct = network.latency(nodes[self.path[0]].host, nodes[self.owner].host)
        if direct <= 1e-9:
            return None
        return self.latency(nodes, network) / direct
