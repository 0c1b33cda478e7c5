"""A Pastry overlay with policy-driven routing-table slots.

The geometry Pastry puts on the shared id-ring substrate
(:mod:`repro.overlay.ring`: consistent membership, lazy slot repair
through the policy and charged as ``table_repair``,
``measure_stretch``).  Ids are integers of ``digits``
base-``2^digit_bits`` digits (default 16 digits of 2 bits: a 32-bit
id space).  Per node:

* a **leaf set** -- the ``leaf_span`` numerically closest members on
  each side of the id (derived from the globally consistent member
  list, modelling converged leaf-set maintenance);
* a **routing table** -- slot ``(row, digit)`` holds some member
  whose id shares the first ``row`` digits with the node and has
  ``digit`` at position ``row``.  *Any* such member qualifies: this
  is the freedom proximity-neighbor selection exploits, abstracted as
  :class:`~repro.overlay.routing.NeighborPolicy`.

Routing (Rowstron & Druschel, Middleware 2001): if the key falls in
the leaf-set range, jump to the numerically closest leaf; otherwise
forward to the slot matching one more prefix digit; if that slot is
empty, fall back to any known node strictly closer to the key with at
least as long a shared prefix.  Hop count is O(log_b N).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.overlay.ring import IdRing
from repro.overlay.routing import NeighborPolicy, RandomNeighborPolicy, RouteResult


def ring_distance(a: int, b: int, space: int) -> int:
    """Minimal circular distance between two ids."""
    gap = abs(a - b)
    return min(gap, space - gap)


@dataclass
class PastryNode:
    """State of one overlay participant."""

    node_id: int
    host: int
    #: (row, digit) -> chosen node id
    table: dict = field(default_factory=dict)


class FirstSlotPolicy(NeighborPolicy):
    """Deterministic baseline: the numerically smallest candidate."""

    name = "first"

    def select(self, overlay, node_id, slot, candidates):
        return min(candidates)


class PastryRing(IdRing):
    """The Pastry overlay."""

    Node = PastryNode

    def __init__(self, digits: int = 16, digit_bits: int = 2, leaf_span: int = 4,
                 network=None, rng=None, stats=None, policy: NeighborPolicy = None):
        if digits < 2 or digit_bits < 1:
            raise ValueError("need digits >= 2 and digit_bits >= 1")
        super().__init__(digits * digit_bits, network, rng, stats, policy)
        self.digits = digits
        self.digit_bits = digit_bits
        self.base = 1 << digit_bits
        self.leaf_span = leaf_span
        if policy is None:  # the default draws from the ring's own stream
            self.policy = RandomNeighborPolicy(self.rng)

    # -- id arithmetic -------------------------------------------------------

    def digit(self, node_id: int, row: int) -> int:
        """Digit at position ``row`` (0 = most significant)."""
        shift = self.bits - (row + 1) * self.digit_bits
        return (node_id >> shift) & (self.base - 1)

    def shared_prefix(self, a: int, b: int) -> int:
        """Number of leading digits ``a`` and ``b`` share."""
        for row in range(self.digits):
            if self.digit(a, row) != self.digit(b, row):
                return row
        return self.digits

    def prefix_interval(self, node_id: int, row: int, digit: int) -> tuple:
        """Id interval of 'shares first ``row`` digits, then ``digit``'."""
        shift = self.bits - (row + 1) * self.digit_bits
        prefix = node_id >> (shift + self.digit_bits)
        lo = ((prefix << self.digit_bits) | digit) << shift
        return lo, lo + (1 << shift)

    def numerically_closest(self, key: int) -> int:
        """The member whose id is circularly closest to ``key``."""
        if not self._ids:
            raise RuntimeError("ring is empty")
        i = bisect.bisect_left(self._ids, key % self.space)
        best = None
        for candidate in (self._ids[i % len(self._ids)], self._ids[i - 1]):
            gap = ring_distance(candidate, key % self.space, self.space)
            if best is None or (gap, candidate) < best:
                best = (gap, candidate)
        return best[1]

    # -- leaf set -------------------------------------------------------------------

    def leaf_set(self, node_id: int) -> list:
        """The ``leaf_span`` members on each side (converged view)."""
        if node_id not in self.nodes:
            raise KeyError(f"id {node_id} not present")
        n = len(self._ids)
        if n == 1:
            return []
        i = bisect.bisect_left(self._ids, node_id)
        span = min(self.leaf_span, (n - 1) // 2 + 1)
        leaves = []
        for offset in range(1, span + 1):
            leaves.append(self._ids[(i + offset) % n])
            leaves.append(self._ids[(i - offset) % n])
        return sorted(set(leaves) - {node_id})

    def _in_leaf_range(self, node_id: int, key: int, leaves: list) -> bool:
        if not leaves:
            return True
        lo = min(leaves + [node_id])
        hi = max(leaves + [node_id])
        # treat the leaf set as covering [lo, hi] when it does not wrap;
        # near the wrap point fall back to distance comparison
        if hi - lo < self.space // 2:
            return lo <= key <= hi
        gap_self = ring_distance(node_id, key, self.space)
        return any(
            ring_distance(leaf, key, self.space) <= gap_self for leaf in leaves
        ) or gap_self == 0

    # -- routing table -----------------------------------------------------------------

    def table_of(self, node_id: int) -> dict:
        return self.nodes[node_id].table

    def slot_interval(self, node_id: int, slot: tuple) -> tuple:
        return self.prefix_interval(node_id, *slot)

    def build_table(self, node_id: int) -> None:
        """(Re)build the routing table through the policy."""
        table = self.nodes[node_id].table = {}
        for row in range(self.digits):
            own_digit = self.digit(node_id, row)
            populated = False
            for digit in range(self.base):
                if digit == own_digit:
                    continue
                entry = self._select(node_id, (row, digit))
                if entry is not None:
                    table[(row, digit)] = entry
                    populated = True
            if not populated and row > 0:
                break  # deeper rows are empty once the prefix is unique

    def slot(self, node_id: int, row: int, digit: int):
        """Slot entry, lazily repaired when dead or stale."""
        return self.entry(node_id, (row, digit))

    # -- routing --------------------------------------------------------------------------

    def route(self, start_id: int, key: int, category: str = "pastry_route"):
        """Prefix routing with leaf-set completion, given up past
        ``4 * digits + 16`` hops."""
        if start_id not in self.nodes:
            raise KeyError(f"start node {start_id} not present")
        max_hops = 4 * self.digits + 16
        key %= self.space
        owner = self.numerically_closest(key)
        path = [start_id]
        current = start_id
        result = RouteResult(path=path)
        while current != owner:
            if len(path) > max_hops:
                result.owner = None
                result.success = False
                return result
            next_hop = None
            leaves = self.leaf_set(current)
            if self._in_leaf_range(current, key, leaves):
                closest = min(
                    leaves + [current],
                    key=lambda l: (ring_distance(l, key, self.space), l),
                )
                if closest != current:
                    next_hop = closest
            if next_hop is None:
                row = self.shared_prefix(current, key)
                if row >= self.digits:
                    next_hop = owner
                else:
                    entry = self.slot(current, row, self.digit(key, row))
                    if entry is not None and entry not in path:
                        next_hop = entry
            if next_hop is None:
                # rare fallback: any known node strictly closer to the key
                # with at least as long a prefix (leaf set serves as the
                # candidate pool, as in Pastry's rule)
                row = self.shared_prefix(current, key)
                gap = ring_distance(current, key, self.space)
                for candidate in leaves:
                    if candidate in path:
                        continue
                    if (
                        self.shared_prefix(candidate, key) >= row
                        and ring_distance(candidate, key, self.space) < gap
                    ):
                        next_hop = candidate
                        break
            if next_hop is None or next_hop in path:
                result.owner = None
                result.success = False
                return result
            path.append(next_hop)
            current = next_hop
            self._count(category)
        result.owner = owner
        return result
