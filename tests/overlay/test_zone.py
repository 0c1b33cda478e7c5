"""Zone arithmetic: splits, siblings, adjacency, overlap, cells."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.zone import (
    CODE_BITS,
    Zone,
    cell_center,
    cell_zone,
    parent_cell,
    point_code,
    sibling_cells,
    torus_distance,
)
from tests.overlay.test_integer_geometry import float_cell


def random_zone(draw, dims: int, max_depth: int = 10) -> Zone:
    """Hypothesis helper: a zone reached by a random split path."""
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    zone = Zone.root(dims)
    for _ in range(depth):
        lower, upper = zone.split()
        zone = lower if draw(st.booleans()) else upper
    return zone


@st.composite
def zones(draw, dims=2, max_depth=10):
    return random_zone(draw, dims, max_depth)


class TestBasics:
    def test_root(self):
        root = Zone.root(3)
        assert root.volume() == 1.0
        assert root.depth == 0
        assert root.contains((0.0, 0.5, 0.999))
        assert not root.contains((1.0, 0.5, 0.5))

    def test_root_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Zone.root(0)

    def test_split_dim_cycles(self):
        zone = Zone.root(2)
        assert zone.split_dim == 0
        child = zone.split()[0]
        assert child.split_dim == 1
        grandchild = child.split()[0]
        assert grandchild.split_dim == 0

    def test_split_halves_volume(self):
        lower, upper = Zone.root(2).split()
        assert lower.volume() == pytest.approx(0.5)
        assert upper.volume() == pytest.approx(0.5)
        assert lower.depth == upper.depth == 1

    def test_center(self):
        assert Zone.root(2).center() == (0.5, 0.5)


class TestSiblings:
    def test_split_children_are_siblings(self):
        lower, upper = Zone.root(2).split()
        assert lower.is_sibling(upper)
        assert upper.is_sibling(lower)

    def test_merge_restores_parent(self):
        parent = Zone.root(2).split()[0].split()[1]
        lower, upper = parent.split()
        assert lower.merge(upper) == parent
        assert upper.merge(lower) == parent

    def test_root_has_no_sibling(self):
        assert not Zone.root(2).is_sibling(Zone.root(2))

    def test_cousins_are_not_siblings(self):
        """Abutting same-shape zones from different parents must not merge."""
        lower, upper = Zone.root(1).split()
        # depth-2 zones: [0,.25) [.25,.5) [.5,.75) [.75,1)
        q = [lower.split()[0], lower.split()[1], upper.split()[0], upper.split()[1]]
        assert q[0].is_sibling(q[1])
        assert q[2].is_sibling(q[3])
        assert not q[1].is_sibling(q[2])  # the cousin pair
        with pytest.raises(ValueError):
            q[1].merge(q[2])

    def test_merge_rejects_non_siblings(self):
        zone = Zone.root(2)
        with pytest.raises(ValueError):
            zone.merge(zone)


class TestNeighbors:
    def test_halves_are_neighbors(self):
        lower, upper = Zone.root(2).split()
        assert lower.is_neighbor(upper)

    def test_torus_wraparound(self):
        # quarters along dim 0 at depth 2 (2d space, dims split 0 then 1)
        lower, upper = Zone.root(1).split()
        first = lower.split()[0]  # [0, .25)
        last = upper.split()[1]  # [.75, 1)
        assert first.is_neighbor(last, torus=True)
        assert not first.is_neighbor(last, torus=False)

    def test_corner_contact_is_not_neighbor(self):
        a = Zone(lo=(0.0, 0.0), hi=(0.5, 0.5), depth=2)
        b = Zone(lo=(0.5, 0.5), hi=(1.0, 1.0), depth=2)
        assert not a.is_neighbor(b, torus=False)

    def test_same_zone_not_neighbor(self):
        zone = Zone.root(2)
        assert not zone.is_neighbor(zone)


class TestOverlaps:
    def test_shared_boundary_is_no_overlap_one_ulp_across_is(self):
        """Half-open boxes: touching at ``0.5`` shares no point; moving the
        lower box's upper bound one ulp past it (or the upper box's lower
        bound one ulp before it) does, in either argument order."""
        lower, upper = Zone.root(2).split()  # [0, .5) and [.5, 1) on dim 0
        assert not lower.overlaps(upper) and not upper.overlaps(lower)
        past = Zone(lower.lo, (math.nextafter(0.5, 1.0), 1.0), lower.depth)
        before = Zone((math.nextafter(0.5, 0.0), 0.0), upper.hi, upper.depth)
        short = Zone(lower.lo, (math.nextafter(0.5, 0.0), 1.0), lower.depth)
        for a, b in ((past, upper), (lower, before)):
            assert a.overlaps(b) and b.overlaps(a)
        assert not short.overlaps(upper) and not upper.overlaps(short)

    def test_every_dimension_must_overlap(self):
        a = Zone(lo=(0.0, 0.0), hi=(0.5, 0.5), depth=2)
        assert a.overlaps(a) and a.overlaps(Zone.root(2))
        assert not a.overlaps(Zone(lo=(0.25, 0.5), hi=(0.5, 1.0), depth=3))

    @given(zones(max_depth=6), zones(max_depth=6))
    @settings(max_examples=60, deadline=None)
    def test_dyadic_boxes_overlap_iff_one_contains_the_other(self, a, b):
        nested = a.contains(b.center()) or b.contains(a.center())
        assert a.overlaps(b) == nested == b.overlaps(a)


class TestDistance:
    def test_zero_inside(self):
        zone = Zone(lo=(0.0, 0.0), hi=(0.5, 0.5), depth=2)
        assert zone.distance_to_point((0.25, 0.25)) == 0.0

    def test_axis_distance(self):
        zone = Zone(lo=(0.0, 0.0), hi=(0.25, 1.0), depth=2)
        assert zone.distance_to_point((0.5, 0.5), torus=False) == pytest.approx(0.25)

    def test_torus_shortcut(self):
        zone = Zone(lo=(0.0, 0.0), hi=(0.25, 1.0), depth=2)
        # going left across the wrap is shorter from x=0.9
        assert zone.distance_to_point((0.9, 0.5), torus=True) == pytest.approx(0.1)
        assert zone.distance_to_point((0.9, 0.5), torus=False) == pytest.approx(0.65)

    def test_torus_point_distance(self):
        assert torus_distance((0.1, 0.5), (0.9, 0.5)) == pytest.approx(0.2)
        assert torus_distance((0.2, 0.2), (0.2, 0.2)) == 0.0


class TestCells:
    def test_cell_of_root(self):
        assert Zone.root(2).cell(0) == (0, 0)

    def test_max_level(self):
        zone = Zone.root(2)
        for expected_level, splits in ((0, 0), (0, 1), (1, 2), (1, 3), (2, 4)):
            z = zone
            for _ in range(splits):
                z = z.split()[0]
            assert z.max_level == expected_level

    def test_cell_beyond_max_level_rejected(self):
        zone = Zone.root(2).split()[0]  # depth 1, spans two level-1 cells
        with pytest.raises(ValueError):
            zone.cell(1)

    def test_point_code_matches_zone_cell(self):
        zone = Zone.root(2).split()[1].split()[1].split()[0].split()[1]
        level = zone.max_level
        shift = CODE_BITS - level
        coded = tuple(c >> shift for c in point_code(zone.center(), 2))
        assert coded == float_cell(zone.center(), level) == zone.cell(level)
        assert tuple(c >> shift for c in zone.code) == zone.cell(level)

    def test_point_code_refuses_what_no_zone_holds(self):
        # the old clamp mapped 1.0 into the top cell, which no half-open
        # zone contains; NaN, a wrong arity and negatives go the same way
        for bad in ((1.0, 1.0), (0.5, float("nan")), (0.5,), (0.1, 0.2, 0.3),
                    (-5e-324, 0.5), (0.5, float("inf"))):
            with pytest.raises(ValueError):
                point_code(bad, 2)
        assert point_code((0.0, 1 - 2**-53), 2) == (0, (1 << CODE_BITS) - 1)

    def test_cell_zone_round_trip(self):
        zone = cell_zone((2, 1), 2)
        assert zone.lo == (0.5, 0.25)
        assert zone.hi == (0.75, 0.5)
        assert zone.cell(2) == (2, 1)

    def test_cell_center(self):
        assert cell_center((0, 0), 1) == (0.25, 0.25)

    def test_parent_cell(self):
        assert parent_cell((5, 3)) == (2, 1)

    def test_sibling_cells(self):
        sibs = set(sibling_cells((2, 3)))
        assert sibs == {(3, 3), (2, 2), (3, 2)}
        assert (2, 3) not in sibs


class TestProperties:
    @given(zones(dims=2))
    @settings(max_examples=80, deadline=None)
    def test_split_partitions_zone(self, zone):
        lower, upper = zone.split()
        assert lower.volume() + upper.volume() == pytest.approx(zone.volume())
        center_lower = lower.center()
        center_upper = upper.center()
        assert zone.contains(center_lower) and zone.contains(center_upper)
        assert not lower.contains(center_upper)
        assert not upper.contains(center_lower)

    @given(zones(dims=2))
    @settings(max_examples=80, deadline=None)
    def test_split_then_merge_round_trip(self, zone):
        lower, upper = zone.split()
        assert lower.merge(upper) == zone

    @given(zones(dims=3, max_depth=12))
    @settings(max_examples=60, deadline=None)
    def test_cells_nest(self, zone):
        for level in range(1, zone.max_level + 1):
            child = zone.cell(level)
            parent = zone.cell(level - 1)
            assert parent_cell(child) == parent

    @given(zones(dims=2), st.tuples(st.floats(0, 0.999), st.floats(0, 0.999)))
    @settings(max_examples=80, deadline=None)
    def test_distance_zero_iff_contains_without_torus(self, zone, point):
        # Only without wraparound: on the torus a point at the wrap
        # boundary touches the zone's closure at distance 0 even though
        # half-open containment excludes it.
        dist = zone.distance_to_point(point, torus=False)
        if zone.contains(point):
            assert dist == 0.0
        else:
            on_boundary = any(
                x == hi for x, hi in zip(point, zone.hi)
            )
            assert dist > 0.0 or on_boundary

    @given(zones(dims=2), st.tuples(st.floats(0, 0.999), st.floats(0, 0.999)))
    @settings(max_examples=80, deadline=None)
    def test_torus_distance_never_exceeds_plain(self, zone, point):
        assert (
            zone.distance_to_point(point, torus=True)
            <= zone.distance_to_point(point, torus=False) + 1e-12
        )

    @given(zones(dims=2))
    @settings(max_examples=60, deadline=None)
    def test_zone_is_inside_its_cells(self, zone):
        for level in range(zone.max_level + 1):
            cell = cell_zone(zone.cell(level), level)
            assert cell.contains(zone.center())
            assert all(cl <= zl for cl, zl in zip(cell.lo, zone.lo))
            assert all(ch >= zh for ch, zh in zip(cell.hi, zone.hi))
