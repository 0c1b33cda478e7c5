"""Global soft-state on Pastry: per-prefix maps and slot selection.

The region geometry Pastry puts on the shared ring engine
(:mod:`repro.softstate.ring`).  A Pastry prefix region is an aligned
interval of the id space, so map placement is the same 1-dimensional
landmark-number scaling used on Chord ("use a prefix of the nodeIds to
partition the logical space into grids", per the appendix): a node's
record is stored, for every prefix region containing its id, at the
region's base id plus the scaled landmark number (condensed to a
prefix of the region).

Slot selection is eCAN's own soft-state policy: to fill slot
``(row, digit)``, a node looks up the map of the corresponding prefix
region under its own landmark number, receives the candidates closest
in landmark space, and RTT-probes the top few.
"""

from __future__ import annotations

import numpy as np

from repro.pastry.ring import FirstSlotPolicy, PastryRing
from repro.softstate.ring import RingSoftState, build_soft_state_overlay


class PastrySoftState(RingSoftState):
    """Publish / lookup proximity records over prefix regions."""

    def useful_rows(self) -> range:
        """Prefix lengths whose regions hold more than a node or two."""
        population = max(len(self.ring), 2)
        useful = max(1, int(np.ceil(np.log(population) / np.log(self.ring.base))))
        return range(1, min(useful + 1, self.ring.digits) + 1)

    def region_of(self, node_id: int, row: int) -> tuple:
        """Region key: ids sharing the first ``row`` digits with node_id."""
        shift = self.ring.bits - row * self.ring.digit_bits
        return (row, node_id >> shift)

    def regions_of(self, node_id: int) -> list:
        return [self.region_of(node_id, row) for row in self.useful_rows()]

    def region_bounds(self, region: tuple) -> tuple:
        row, prefix = region
        shift = self.ring.bits - row * self.ring.digit_bits
        lo = prefix << shift
        return lo, lo + (1 << shift)

    def slot_regions(self, node_id: int, slot: tuple) -> tuple:
        # a slot's candidates are exactly one prefix region, one digit deeper
        row, digit = slot
        lo, _hi = self.ring.prefix_interval(node_id, row, digit)
        return (self.region_of(lo, row + 1),)


def build_soft_state_pastry(
    network,
    num_nodes: int,
    landmarks: int = 15,
    policy_name: str = "softstate",
    rtt_budget: int = 10,
    digits: int = 14,
    seed: int = 0,
):
    """Assemble a Pastry overlay with the chosen neighbor policy.

    ``policy_name`` is ``first``, ``random``, ``softstate`` or
    ``optimal``; see :func:`~repro.softstate.ring.build_soft_state_overlay`.
    """
    return build_soft_state_overlay(
        PastryRing, PastrySoftState, FirstSlotPolicy(), network, num_nodes,
        landmarks, policy_name, rtt_budget, seed, digits=digits,
    )
