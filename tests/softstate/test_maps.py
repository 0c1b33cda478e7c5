"""Regions and the map-placement hash."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.zone import Zone
from repro.softstate import Region, map_position, regions_of_zone
from repro.softstate.maps import check_region


class TestRegion:
    def test_zone_round_trip(self):
        region = Region(level=2, cell=(1, 3))
        zone = region.zone()
        assert zone.lo == (0.25, 0.75)
        assert zone.hi == (0.5, 1.0)
        assert region.contains_point((0.3, 0.8))
        assert not region.contains_point((0.3, 0.5))

    def test_parent(self):
        assert Region(2, (3, 1)).parent() == Region(1, (1, 0))

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            Region(0, (0, 0)).parent()

    def test_regions_of_zone(self):
        zone = Zone.root(2)
        for _ in range(4):
            zone = zone.split()[0]
        regions = regions_of_zone(zone)
        assert [r.level for r in regions] == [1, 2]
        for region in regions:
            assert region.contains_point(zone.center())

    def test_shallow_zone_has_no_regions(self):
        assert regions_of_zone(Zone.root(2)) == []
        assert regions_of_zone(Zone.root(2).split()[0]) == []

    def test_a_region_is_its_level_cell_tuple(self):
        region = Region(2, (1, 3))
        assert region == (2, (1, 3))
        assert hash(region) == hash((2, (1, 3)))
        assert {region: 1}[(2, (1, 3))] == 1
        assert repr(region) == "Region(level=2, cell=(1, 3))"

    @pytest.mark.parametrize("cell", [(4, 0), (0, 4), (-1, 0), (0,), (0, 0, 0)])
    def test_check_region_refuses_a_cell_the_overlay_has_not(self, cell):
        with pytest.raises(ValueError, match=r"Region\(level=2"):
            check_region(Region(2, cell), 2)

    def test_check_region_accepts_every_cell_of_its_level(self):
        for level in range(3):
            for x in range(1 << level):
                for y in range(1 << level):
                    check_region(Region(level, (x, y)), 2)


class TestMapPosition:
    def test_position_inside_region(self):
        region = Region(1, (1, 0))
        for number in (0, 100, 1023):
            point = map_position(number, 10, region, 2, condense_rate=1.0)
            assert region.contains_point(point)

    def test_condensed_position_in_subbox(self):
        region = Region(1, (0, 0))
        zone = region.zone()
        rate = 1.0 / 16.0
        side = rate ** 0.5  # per-dimension shrink in 2-d
        for number in (0, 55, 1023):
            point = map_position(number, 10, region, 2, condense_rate=rate)
            for lo, hi, x in zip(zone.lo, zone.hi, point):
                assert lo <= x < lo + (hi - lo) * side + 1e-12

    def test_condense_rate_validation(self):
        region = Region(1, (0, 0))
        with pytest.raises(ValueError):
            map_position(0, 10, region, 2, condense_rate=0.0)
        with pytest.raises(ValueError):
            map_position(0, 10, region, 2, condense_rate=1.5)

    def test_locality_preserved(self):
        """Adjacent landmark numbers land at adjacent map positions."""
        region = Region(1, (0, 0))
        previous = None
        max_gap = 0.0
        for number in range(0, 64):
            point = map_position(number, 6, region, 2, condense_rate=1.0)
            if previous is not None:
                gap = sum((a - b) ** 2 for a, b in zip(point, previous)) ** 0.5
                max_gap = max(max_gap, gap)
            previous = point
        # one Hilbert step = one grid cell; region side 0.5, 8x8 grid
        assert max_gap <= 0.5 / 8 + 1e-9

    @given(
        st.integers(min_value=0, max_value=(1 << 12) - 1),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_number_lands_inside(self, number, level):
        region = Region(level, (0,) * 2)
        point = map_position(number, 12, region, 2, condense_rate=0.25)
        assert region.contains_point(point)

    def test_same_number_same_position(self):
        region = Region(2, (1, 1))
        a = map_position(77, 10, region, 2, condense_rate=0.5)
        b = map_position(77, 10, region, 2, condense_rate=0.5)
        assert a == b
