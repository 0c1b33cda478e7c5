"""Global soft-state on Chord: landmark-keyed maps and finger selection.

The region geometry Chord puts on the shared ring engine
(:mod:`repro.softstate.ring`: registry, maps, ``map_key`` placement,
publish / withdraw / lookup, ``slot_records``).  A prefix region is
an aligned ID interval; a node publishes its record into the map of
every aligned interval that contains its ring id -- at most ``log N``
useful levels -- and a finger selection queries the region(s)
overlapping the finger's interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chord.ring import ChordRing, SuccessorFingerPolicy
from repro.softstate.ring import RingSoftState, build_soft_state_overlay


@dataclass(frozen=True)
class ChordRegion:
    """Aligned ID interval: at ``level`` l the ring splits into 2^l arcs."""

    level: int
    index: int

    def bounds(self, bits: int) -> tuple:
        size = 1 << (bits - self.level)
        lo = self.index * size
        return lo, lo + size

    @classmethod
    def containing(cls, node_id: int, level: int, bits: int) -> "ChordRegion":
        return cls(level=level, index=node_id >> (bits - level))


class ChordSoftState(RingSoftState):
    """Publish / lookup proximity records over the ring."""

    def levels_for(self) -> range:
        """Useful region levels: arcs holding >= a handful of nodes."""
        population = max(len(self.ring), 2)
        useful = max(1, int(np.ceil(np.log2(population))) - 1)
        return range(1, min(useful, 12, self.ring.bits - 1) + 1)

    def regions_of(self, node_id: int) -> list:
        return [
            ChordRegion.containing(node_id, level, self.ring.bits)
            for level in self.levels_for()
        ]

    def region_bounds(self, region: ChordRegion) -> tuple:
        return region.bounds(self.ring.bits)

    def slot_regions(self, node_id: int, index: int) -> set:
        # the finest region level whose arcs are not smaller than the
        # finger interval, for both arcs the interval may straddle
        bits = self.ring.bits
        lo, hi = self.ring.finger_interval(node_id, index)
        level = min(max(self.levels_for(), default=1), max(1, bits - (index + 1)))
        return {
            ChordRegion.containing(lo, level, bits),
            ChordRegion.containing((hi - 1) % self.ring.space, level, bits),
        }

    def entries_per_node(self) -> dict:
        counts: dict = {}
        for bucket in self.maps.values():
            for _node_id, (_record, key) in bucket.items():
                owner = self.ring.successor_of(key)
                counts[owner] = counts.get(owner, 0) + 1
        return counts


def build_soft_state_ring(
    network,
    num_nodes: int,
    landmarks: int = 15,
    policy_name: str = "softstate",
    rtt_budget: int = 10,
    bits: int = 20,
    seed: int = 0,
):
    """Assemble a Chord ring with the chosen finger policy, fully built.

    ``policy_name`` is ``successor``, ``random``, ``softstate`` or
    ``optimal``; see :func:`~repro.softstate.ring.build_soft_state_overlay`.
    """
    return build_soft_state_overlay(
        ChordRing, ChordSoftState, SuccessorFingerPolicy(), network, num_nodes,
        landmarks, policy_name, rtt_budget, seed, bits=bits,
    )
