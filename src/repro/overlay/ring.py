"""The id-ring substrate shared by the Chord and Pastry ports.

Both ports place members on a ring of ``2^bits`` integer ids and give
every node a table of *slots*, each of which may point at ANY member
of one id interval -- the freedom proximity-neighbor selection
exploits.  Everything that does not depend on which intervals those
are lives here, once:

* Ring membership is kept globally consistent (joins and leaves update
  a sorted id list) -- this models a converged stabilization protocol,
  the same idealization the CAN substrate makes about its neighbor
  sets.  A join costs one charged lookup for the id position.
* Tables, by contrast, are per-node state chosen by a
  :class:`~repro.overlay.routing.NeighborPolicy` (the one eCAN uses)
  and may go stale; :meth:`IdRing.entry` validates an entry lazily and
  repairs through the policy, charging ``table_repair``, and
  :meth:`IdRing.invalidate_member` drops a confirmed-dead member
  eagerly.

A port subclasses :class:`IdRing` and supplies its geometry: the
``Node`` state class and ``table_of`` (where a node keeps its slots),
``slot_interval`` (the id interval a slot may point into),
``build_table`` (which slots a node fills) and ``route`` (the
forwarding rule and, with it, which member owns a key).
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.overlay.routing import NeighborPolicy, sample_stretch


def distance_cw(a: int, b: int, space: int) -> int:
    """Clockwise distance from ``a`` to ``b`` on the ring."""
    return (b - a) % space


def in_interval(x: int, lo: int, hi: int, space: int) -> bool:
    """True if ``x`` lies in the clockwise half-open interval [lo, hi)."""
    return distance_cw(lo, x, space) < distance_cw(lo, hi, space)


class IdRing:
    """Sorted-id membership, policy-filled tables, lazy repair, stretch."""

    #: per-node state class, constructed as ``Node(node_id=, host=)``
    Node = None

    def __init__(self, bits: int, network, rng, stats, policy: NeighborPolicy):
        self.bits = bits
        self.space = 1 << bits
        self.network = network
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = stats
        self.policy = policy
        self._ids: list = []  # sorted member ids
        self.nodes: dict = {}
        #: observers notified as (event, node_id)
        self.observers: list = []

    # -- geometry, supplied by the port --------------------------------------

    def table_of(self, node_id: int) -> dict:
        """The slot -> chosen member id dict of ``node_id``."""
        raise NotImplementedError

    def slot_interval(self, node_id: int, slot) -> tuple:
        """The clockwise id interval ``[lo, hi)`` ``slot`` may point into."""
        raise NotImplementedError

    def build_table(self, node_id: int) -> None:
        """(Re)build every slot of ``node_id`` through the policy."""
        raise NotImplementedError

    def route(self, start_id: int, key: int, category: str = None):
        """Forward from ``start_id`` to the owner of ``key``, charging
        ``category`` per hop; returns a ``RouteResult``."""
        raise NotImplementedError

    # -- bookkeeping ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def _count(self, category: str, n: int = 1) -> None:
        if self.stats is not None and category is not None and n:
            self.stats.count(category, n)

    def members(self) -> list:
        return list(self._ids)

    def random_member(self) -> int:
        if not self._ids:
            raise RuntimeError("ring is empty")
        return self._ids[int(self.rng.integers(0, len(self._ids)))]

    def interval_members(self, lo: int, hi: int) -> list:
        """Members with ids in the clockwise interval [lo, hi)."""
        lo %= self.space
        hi %= self.space
        if lo == hi:
            return []
        i = bisect.bisect_left(self._ids, lo)
        j = bisect.bisect_left(self._ids, hi)
        if lo < hi:
            return self._ids[i:j]
        return self._ids[i:] + self._ids[:j]

    # -- membership ----------------------------------------------------------

    def join(self, host: int, node_id: int = None) -> int:
        """Add a member; returns its ring id."""
        if node_id is None:
            while True:
                node_id = int(self.rng.integers(0, self.space))
                if node_id not in self.nodes:
                    break
        elif node_id in self.nodes:
            raise ValueError(f"id {node_id} already on the ring")
        bisect.insort(self._ids, node_id)
        self.nodes[node_id] = self.Node(node_id=node_id, host=host)
        # a join costs one lookup for the id position
        if len(self._ids) > 1:
            self.route(self.random_member(), node_id, category="join_route")
        for observer in self.observers:
            observer("join", node_id)
        return node_id

    def leave(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise KeyError(f"id {node_id} not on the ring")
        self._ids.remove(node_id)
        del self.nodes[node_id]
        for observer in self.observers:
            observer("leave", node_id)

    def invalidate_member(self, dead_id: int) -> int:
        """Eagerly drop every table entry pointing at ``dead_id``.

        Crash recovery calls this once a death is *confirmed*, instead
        of leaving each stale entry to be discovered (and charged as
        ``table_repair``) on first use.  Returns entries removed.
        """
        removed = 0
        for node_id in self.nodes:
            table = self.table_of(node_id)
            stale = [slot for slot, entry in table.items() if entry == dead_id]
            for slot in stale:
                del table[slot]
            removed += len(stale)
        self._count("eager_invalidate", removed)
        return removed

    # -- table entries -------------------------------------------------------

    def _select(self, node_id: int, slot):
        lo, hi = self.slot_interval(node_id, slot)
        candidates = [c for c in self.interval_members(lo, hi) if c != node_id]
        if not candidates:
            return None
        chosen = self.policy.select(self, node_id, slot, candidates)
        if chosen is None:
            # candidates run clockwise from ``lo``: the vanilla choice
            # (Chord's successor(n + 2^i), Pastry's smallest match)
            chosen = candidates[0]
        self._count("neighbor_select")
        return chosen

    def entry(self, node_id: int, slot):
        """Current entry of ``slot``, lazily repaired when stale or missing."""
        table = self.table_of(node_id)
        entry = table.get(slot)
        if entry is not None and entry in self.nodes:
            lo, hi = self.slot_interval(node_id, slot)
            if in_interval(entry, lo, hi, self.space):
                return entry
        repaired = entry is not None
        entry = self._select(node_id, slot)
        if entry is None:
            table.pop(slot, None)
            return None
        if repaired:
            self._count("table_repair")
        table[slot] = entry
        return entry

    # -- metrics -------------------------------------------------------------

    def measure_stretch(self, samples: int, rng=None) -> np.ndarray:
        """Routing stretch over random member pairs (needs a network)."""
        if self.network is None:
            raise RuntimeError("ring has no attached network")
        return sample_stretch(
            self._ids,
            samples,
            self.rng if rng is None else rng,
            lambda src, dst: self.route(src, dst).stretch(self.nodes, self.network),
        )
