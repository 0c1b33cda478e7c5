"""Regions, map placement and the condense rate.

A *region* is a high-order zone of the eCAN (a quadtree cell; for
Pastry it would be a node-id prefix).  One proximity map exists per
region and is stored *on the nodes of that region*.

Placement uses the paper's hash ``p' = h(p, dp, dz, z)``: the
landmark number -- itself a Hilbert index over the (binned) landmark
space -- is re-expanded through a ``dz``-dimensional Hilbert curve
into a position inside the region, so nodes with close landmark
numbers are recorded at nearby positions, i.e. usually on the same
hosting node.

The *condense rate* is the ratio of the map's footprint to the
region's size: positions are squeezed into a sub-box anchored at the
region's lower corner whose volume is ``condense_rate`` of the
region.  A small rate concentrates the whole map on one or two nodes
(cheap lookup, more entries per node); rate 1 spreads it across the
region (Figure 16 sweeps this trade-off).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from repro.overlay.zone import Zone, cell_zone
from repro.proximity.hilbert import HilbertCurve


class Region(NamedTuple):
    """A high-order zone: quadtree ``cell`` at ``level``.

    A plain tuple underneath, so hashing and equality run in C for every
    map, index and cache key it is part of.  It therefore also compares
    equal to the bare ``(level, cell)`` tuple.
    """

    level: int
    cell: tuple

    @property
    def dims(self) -> int:
        return len(self.cell)

    def zone(self) -> Zone:
        return cell_zone(self.cell, self.level)

    def contains_point(self, point) -> bool:
        return self.zone().contains(point)

    def parent(self) -> "Region":
        if self.level == 0:
            raise ValueError("the root region has no parent")
        return Region(self.level - 1, tuple(c >> 1 for c in self.cell))


def regions_of_zone(zone: Zone) -> list:
    """All regions (high-order zones) that enclose ``zone``.

    A node appears in the map of every region returned here -- at
    most ``log N`` of them, as the paper notes.
    """
    return [Region(level, zone.cell(level)) for level in range(1, zone.max_level + 1)]


@lru_cache(maxsize=64)
def _expansion_curve(total_bits: int, dims: int) -> HilbertCurve:
    bits_per_dim = max(1, math.ceil(total_bits / dims))
    return HilbertCurve(bits=bits_per_dim, dims=dims)


@lru_cache(maxsize=1 << 14)
def _unit_point(landmark_number: int, total_bits: int, dims: int) -> tuple:
    """The unit-cube point of ``landmark_number``: the centre of its cell
    on the ``dims``-dimensional expansion curve.  One per node and
    dimensionality, shared by every region the node's record enters."""
    curve = _expansion_curve(total_bits, dims)
    shift = curve.bits * dims - total_bits
    index = landmark_number << shift if shift >= 0 else landmark_number >> -shift
    return curve.decode_center(index)


def check_region(region: Region, dims: int) -> None:
    """Refuse a region that is not a cell of a ``dims``-dimensional overlay.

    ValueError, naming the region, unless its cell has exactly ``dims``
    coordinates, each in ``[0, 2**level)``.
    """
    level, cell = region
    if level < 0 or len(cell) != dims or not all(0 <= c < 1 << level for c in cell):
        raise ValueError(
            f"{region!r} is not a region of a {dims}-dimensional overlay: "
            f"a level-{level} cell has {dims} coordinates, each in [0, 2**{level})"
        )


@lru_cache(maxsize=1 << 16)
def map_position(
    landmark_number: int,
    total_bits: int,
    region: Region,
    dims: int,
    condense_rate: float = 1.0,
) -> tuple:
    """Position inside ``region`` at which a record is stored.

    ``landmark_number`` is a Hilbert index of ``total_bits`` bits;
    it is scaled onto a region-dimensional Hilbert curve (preserving
    order, hence locality), decoded to a point of the unit cube, then
    squeezed into the condensed sub-box of the region.  This is where
    a region becomes a position, so this is where it is checked
    (:func:`check_region` against the overlay's ``dims``); the cache
    makes the check a one-off per argument tuple.
    """
    if not 0 < condense_rate <= 1.0:
        raise ValueError("condense_rate must be in (0, 1]")
    check_region(region, dims)
    unit = _unit_point(landmark_number, total_bits, dims)
    side_fraction = condense_rate ** (1.0 / dims)
    zone = region.zone()
    return tuple(
        lo + (hi - lo) * side_fraction * u
        for lo, hi, u in zip(zone.lo, zone.hi, unit)
    )
