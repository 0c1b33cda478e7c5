"""One zone per member: CAN's zone reassignment on departure.

A departing zone goes to its sibling's holder when that sibling is one
whole zone; otherwise the holders of a pair of sibling leaf zones share
the work, one taking their parent and the other moving into the
departed zone (``CanOverlay._reassign``).  So every member always holds
exactly one zone, and every eCAN route is delivered under any churn.
"""

import numpy as np
import pytest

from repro.netsim.network import MessageStats
from repro.overlay import EcanOverlay
from repro.overlay.can import CanOverlay


def dyadic_point(rng) -> tuple:
    """A point ``k / 2**m`` per coordinate, ``m`` in 0..6."""
    m = int(rng.integers(0, 7))
    return tuple(float(k) / 2**m for k in rng.integers(0, 2**m, size=2))


def stranded_routes(seed: int, ops: int = 300) -> list:
    """Join, leave, crash (``takeover_dead``) and route-everyone ops in
    a seeded order; the ``(op, src, point)`` of every route that did not
    end at the member whose zone contains the point."""
    ecan = EcanOverlay(dims=2, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(1000 + seed)
    stranded = []
    next_id = 0
    for op in range(ops):
        kind = int(rng.integers(0, 5))
        members = list(ecan.nodes)
        if kind in (0, 1) or len(members) < 2:
            ecan.join(next_id, host=next_id)
            next_id += 1
        elif kind == 2:
            ecan.leave(members[int(rng.integers(0, len(members)))])
        elif kind == 4:
            ecan.takeover_dead(members[int(rng.integers(0, len(members)))])
        else:
            points = [(0.0, 0.0)] + [dyadic_point(rng) for _ in range(3)]
            points.append(tuple(float(x) for x in rng.random(2)))
            for point in points:
                owner = ecan.can._resolve_owner(point)
                for src in members:
                    result = ecan.route(src, point)
                    if not result.success or result.owner != owner:
                        stranded.append((op, src, point))
    ecan.can.check_invariants()
    return stranded


@pytest.mark.parametrize("seed", [9, 46, 47])
def test_churn_scan_strands_no_route(seed):
    # each of these seeds stranded one route when departures left
    # members holding several zones
    assert stranded_routes(seed) == []


def quadrants(stats=None) -> CanOverlay:
    """Four members, one per quadrant: 0 low-left, 3 high-left,
    1 low-right, 2 high-right (x splits first, then y)."""
    can = CanOverlay(dims=2, stats=stats)
    can.join(0, host=0)
    can.join(1, host=1, point=(0.75, 0.25))
    can.join(2, host=2, point=(0.75, 0.75))
    can.join(3, host=3, point=(0.25, 0.75))
    return can


class TestReassignment:
    def test_whole_sibling_takes_the_parent_without_a_move(self):
        stats = MessageStats()
        can = quadrants(stats)
        assert can.leave(2) == {1}
        assert can.nodes[1].zone.depth == 1
        assert stats.get("zone_reassign") == 0
        can.check_invariants()

    def test_split_sibling_moves_the_deepest_lowest_pair(self):
        stats = MessageStats()
        can = quadrants(stats)
        can.join(4, host=4, point=(0.9, 0.75))  # 2 keeps x < 3/4
        # 1's sibling is split: of the deepest pair, 2 (the lower half)
        # takes the parent and 4 moves
        departed = can.nodes[1].zone
        assert can.leave(1) == {2, 4}
        assert can.nodes[4].zone == departed
        assert can.nodes[2].zone.depth == 2
        assert stats.get("zone_reassign") == 1
        assert stats.get("leave_update") == 1
        can.check_invariants()

    def test_a_live_pair_goes_before_a_dead_sibling(self):
        can = quadrants()
        # 2's sibling 1 is a corpse; the lowest live pair at the deepest
        # depth is 0 and 3: 0 takes the left half, 3 moves
        departed = can.nodes[2].zone
        assert can.takeover_dead(2, dead={1}) == {0, 3}
        assert can.nodes[3].zone == departed
        can.check_invariants()

    def test_a_corpse_takes_part_only_when_no_live_member_can(self):
        can = quadrants()
        can.leave(3)  # 0 holds the left half: no live pair remains
        assert can.takeover_dead(2, dead={1}) == {1}
        # the corpse's own takeover passes the zone on
        assert can.takeover_dead(1) == {0}
        assert can.nodes[0].zone.depth == 0
        can.check_invariants()

    def test_every_member_holds_one_indexed_zone_under_churn(self):
        can = CanOverlay(dims=2, rng=np.random.default_rng(4))
        for i in range(64):
            can.join(i, host=i)
        rng = np.random.default_rng(4)
        for step in range(48):
            victim = int(rng.choice(sorted(can.nodes)))
            if step % 2:
                can.takeover_dead(victim)
            else:
                can.leave(victim)
            can.check_invariants()
        assert sorted(
            n for bucket in can._by_depth.values() for n in bucket.values()
        ) == sorted(can.nodes)


def test_a_moved_member_rebuilds_its_table():
    stats = MessageStats()
    ecan = EcanOverlay(dims=2, rng=np.random.default_rng(0), stats=stats)
    for i in range(48):
        ecan.join(i, host=i)
    for victim in sorted(ecan.nodes):
        zone = ecan.nodes[victim].zone
        before = stats.get("zone_reassign")
        ecan.leave(victim)
        if stats.get("zone_reassign") > before:
            break
    (mover,) = [n for n, node in ecan.nodes.items() if node.zone == zone]
    # every slot of the rebuilt table is a sibling cell of the mover's
    # own cell at that level, as a joiner's table is
    table = ecan.table_of(mover)
    assert sorted(table) == list(range(1, zone.max_level + 1))
    for level, row in table.items():
        own = zone.cell(level)
        for cell in row:
            assert cell != own
            assert tuple(c >> 1 for c in cell) == tuple(c >> 1 for c in own)


def test_check_invariants_holds_the_zone_index_to_one_zone_per_member():
    can = quadrants()
    index = can._by_depth[2]  # prefixes 0b00 .. 0b11, dimension 0 first
    assert sorted(index) == [0, 1, 2, 3]
    index[2], index[3] = index[3], index[2]  # quadrants (1, 0) and (1, 1)
    with pytest.raises(AssertionError, match="zone index says"):
        can.check_invariants()
    index[2], index[3] = index[3], index[2]
    can.check_invariants()
    del index[0]
    with pytest.raises(AssertionError, match="3 indexed zones for 4 members"):
        can.check_invariants()
