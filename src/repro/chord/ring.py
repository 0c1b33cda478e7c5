"""A Chord ring with policy-driven finger selection.

The geometry Chord puts on the shared id-ring substrate
(:mod:`repro.overlay.ring`: consistent membership, lazy finger repair
through the policy, ``measure_stretch``):

* Finger ``i`` of node ``n`` may be ANY member of the ID interval
  ``[n + 2^i, n + 2^(i+1))`` -- the standard proximity-neighbor-
  selection freedom on Chord.  Vanilla Chord (the first node of the
  interval, i.e. ``successor(n + 2^i)``) is the
  :class:`SuccessorFingerPolicy`.
* A key is owned by its successor, and greedy routing forwards to the
  furthest finger that does not overshoot the key; each hop at least
  halves the remaining clockwise distance, so hops stay O(log N) for
  any per-interval choice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.overlay.ring import IdRing, distance_cw, in_interval
from repro.overlay.routing import NeighborPolicy, RouteResult


@dataclass
class ChordNode:
    """State of one ring participant."""

    node_id: int
    host: int
    #: finger index -> chosen node id (sparse; computed lazily)
    fingers: dict = field(default_factory=dict)


class SuccessorFingerPolicy(NeighborPolicy):
    """Vanilla Chord: the first node at or after ``n + 2^i``."""

    name = "successor"

    def select(self, overlay, node_id, slot, candidates):
        start = (node_id + (1 << slot)) % overlay.space
        return min(candidates, key=lambda c: distance_cw(start, c, overlay.space))


class ChordRing(IdRing):
    """The ring, its members, routing, and finger management."""

    Node = ChordNode

    def __init__(self, bits: int = 24, network=None, rng=None, stats=None,
                 policy: NeighborPolicy = None):
        if bits < 3:
            raise ValueError("bits must be >= 3")
        super().__init__(
            bits, network, rng, stats,
            policy if policy is not None else SuccessorFingerPolicy(),
        )

    # -- ring arithmetic -------------------------------------------------------

    def successor_of(self, key: int) -> int:
        """First member at or after ``key`` (wrapping)."""
        if not self._ids:
            raise RuntimeError("ring is empty")
        i = bisect.bisect_left(self._ids, key % self.space)
        return self._ids[i % len(self._ids)]

    def successor(self, node_id: int) -> int:
        """The member clockwise-after ``node_id``."""
        return self.successor_of((node_id + 1) % self.space)

    def predecessor(self, node_id: int) -> int:
        i = bisect.bisect_left(self._ids, node_id)
        return self._ids[(i - 1) % len(self._ids)]

    # -- fingers ------------------------------------------------------------------------

    def table_of(self, node_id: int) -> dict:
        return self.nodes[node_id].fingers

    def finger_interval(self, node_id: int, index: int) -> tuple:
        """The clockwise ID interval finger ``index`` may point into."""
        lo = (node_id + (1 << index)) % self.space
        hi = (node_id + (1 << (index + 1))) % self.space
        return lo, hi

    def build_fingers(self, node_id: int) -> None:
        """(Re)build every finger of ``node_id`` through the policy."""
        fingers = self.nodes[node_id].fingers = {}
        for index in range(self.bits):
            chosen = self._select(node_id, index)
            if chosen is not None:
                fingers[index] = chosen

    def finger(self, node_id: int, index: int):
        """Current finger, lazily repaired when stale or missing."""
        return self.entry(node_id, index)

    # a slot is a finger: the substrate's hooks under Chord's names
    slot_interval = finger_interval
    build_table = build_fingers

    # -- routing --------------------------------------------------------------------------

    def route(self, start_id: int, key: int, category: str = "chord_route"):
        """Greedy clockwise routing, given up past ``4 * bits`` hops;
        returns (path ids, owner id)."""
        if start_id not in self.nodes:
            raise KeyError(f"start node {start_id} not on the ring")
        max_hops = 4 * self.bits
        key %= self.space
        path = [start_id]
        current = start_id
        result = RouteResult(path=path)
        while True:
            successor = self.successor(current)
            if current == key or in_interval(
                key, (current + 1) % self.space, (successor + 1) % self.space,
                self.space,
            ) or len(self) == 1:
                owner = self.successor_of(key)
                if owner != current:
                    path.append(owner)
                    self._count(category)
                result.owner = owner
                return result
            if len(path) > max_hops:
                result.owner = None
                result.success = False
                return result
            # furthest finger that does not overshoot the key
            next_hop = None
            gap = distance_cw(current, key, self.space)
            for index in range(self.bits - 1, -1, -1):
                if (1 << index) >= gap:
                    continue
                entry = self.finger(current, index)
                if entry is None or entry in path:
                    continue
                if in_interval(entry, (current + 1) % self.space, key, self.space):
                    next_hop = entry
                    break
            if next_hop is None:
                next_hop = successor
                if next_hop in path:
                    result.owner = None
                    result.success = False
                    return result
            path.append(next_hop)
            current = next_hop
            self._count(category)
