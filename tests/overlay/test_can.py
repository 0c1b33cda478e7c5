"""CAN overlay: join/leave invariants and greedy routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.network import MessageStats
from repro.overlay import CanOverlay


def build_can(n: int, dims: int = 2, seed: int = 0, stats=None) -> CanOverlay:
    can = CanOverlay(dims=dims, rng=np.random.default_rng(seed), stats=stats)
    for i in range(n):
        can.join(i, host=1000 + i)
    return can


class TestJoin:
    def test_first_node_owns_everything(self):
        can = build_can(1)
        assert can.total_volume() == pytest.approx(1.0)
        assert can.nodes[0].zone.depth == 0
        assert can.nodes[0].neighbors == set()

    def test_second_join_splits(self):
        can = build_can(2)
        can.check_invariants()
        assert can.nodes[0].neighbors == {1}
        assert can.nodes[1].neighbors == {0}

    def test_duplicate_id_rejected(self):
        can = build_can(2)
        with pytest.raises(ValueError):
            can.join(0, host=1)

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_invariants_after_many_joins(self, dims):
        can = build_can(60, dims=dims, seed=dims)
        can.check_invariants()

    def test_rewiring_two_nodes_per_join_keeps_every_link(self):
        """``join`` rewires only the split owner and the newcomer.

        ``check_invariants`` after every join proves each link present
        is symmetric and adjacent; the all-pairs recount proves no link
        a wider rewire would have found is missing.
        """
        can = CanOverlay(dims=2, rng=np.random.default_rng(21))
        for i in range(512):
            can.join(i, host=i)
            can.check_invariants()
            if i in (7, 63, 200, 511):
                for a, node in can.nodes.items():
                    expected = {
                        b
                        for b, other in can.nodes.items()
                        if b != a and can._adjacent(node, other)
                    }
                    assert node.neighbors == expected

    def test_join_at_specific_point(self):
        can = build_can(1)
        can.join(1, host=5, point=(0.9, 0.9))
        owner = can.owner_of_point((0.9, 0.9))
        assert owner == 1

    def test_volume_conserved(self):
        can = build_can(47)
        assert can.total_volume() == pytest.approx(1.0)

    def test_join_charges_route_messages(self):
        stats = MessageStats()
        build_can(30, stats=stats)
        assert stats.get("join_route") > 0
        assert stats.get("join_update") > 0


class TestOwnerLookup:
    def test_every_point_has_owner(self, rng):
        can = build_can(40)
        for _ in range(100):
            point = tuple(rng.random(2))
            owner = can.owner_of_point(point)
            assert can.nodes[owner].contains(point)

    def test_empty_overlay_raises(self):
        can = CanOverlay(dims=2)
        with pytest.raises((KeyError, RuntimeError)):
            can.owner_of_point((0.5, 0.5))


class TestRouting:
    def test_route_reaches_owner(self, rng):
        can = build_can(50)
        for _ in range(50):
            point = tuple(rng.random(2))
            start = can.random_node()
            result = can.route(start, point)
            assert result.success
            assert result.owner == can.owner_of_point(point)
            assert result.path[0] == start

    def test_route_to_own_zone_is_zero_hops(self):
        can = build_can(10)
        node = can.nodes[3]
        result = can.route(3, node.zone.center())
        assert result.hops == 0
        assert result.owner == 3

    def test_path_is_neighbor_connected(self, rng):
        can = build_can(64, seed=5)
        point = tuple(rng.random(2))
        result = can.route(can.random_node(), point)
        for a, b in zip(result.path, result.path[1:]):
            assert b in can.nodes[a].neighbors

    def test_unknown_start_raises(self):
        can = build_can(5)
        with pytest.raises(KeyError):
            can.route(99, (0.5, 0.5))

    def test_hops_grow_with_n(self, rng):
        hops = {}
        for n in (16, 256):
            can = build_can(n, seed=2)
            samples = [
                can.route(can.random_node(), tuple(rng.random(2))).hops
                for _ in range(60)
            ]
            hops[n] = np.mean(samples)
        assert hops[256] > hops[16]

    def test_higher_dims_route_shorter(self, rng):
        means = {}
        for dims in (2, 4):
            can = build_can(256, dims=dims, seed=3)
            samples = [
                can.route(can.random_node(), tuple(rng.random(dims))).hops
                for _ in range(60)
            ]
            means[dims] = np.mean(samples)
        assert means[4] < means[2]

    def test_route_message_accounting(self):
        stats = MessageStats()
        can = build_can(32, stats=stats)
        before = stats.snapshot()
        result = can.route(can.random_node(), (0.123, 0.456), category="custom_route")
        assert stats.delta(before).get("custom_route", 0) == result.hops


class TestLeave:
    def test_leave_returns_volume(self):
        can = build_can(20)
        can.leave(7)
        assert 7 not in can.nodes
        can.check_invariants()

    def test_leave_unknown_raises(self):
        can = build_can(3)
        with pytest.raises(KeyError):
            can.leave(42)

    def test_leave_last_node(self):
        can = build_can(1)
        can.leave(0)
        assert len(can) == 0

    def test_random_node_on_an_overlay_emptied_by_departures(self):
        can = build_can(2)
        can.leave(1)
        can.leave(0)
        # the order list still names the departed; the documented error,
        # not the rng's "high <= 0", must come out
        with pytest.raises(RuntimeError, match="overlay is empty"):
            can.random_node()
        can.join(5, host=1)
        assert can.random_node() == 5

    def test_sibling_merge_restores_single_zone(self):
        can = build_can(1)
        can.join(1, host=5, point=(0.9, 0.5))
        can.leave(1)
        assert len(can.nodes[0].zones) == 1
        assert can.nodes[0].zone.depth == 0

    def test_leave_many_keeps_invariants(self, rng):
        can = build_can(60, seed=9)
        victims = rng.permutation(60)[:40]
        for v in victims:
            can.leave(int(v))
        can.check_invariants()
        assert len(can) == 20

    def test_routing_after_churn(self, rng):
        can = build_can(60, seed=11)
        for v in range(0, 60, 2):
            can.leave(v)
        for _ in range(40):
            result = can.route(can.random_node(), tuple(rng.random(2)))
            assert result.success


class TestChurnProperty:
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=5, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_random_join_leave_sequence_preserves_invariants(self, ops):
        """Any join/leave interleaving keeps the CAN consistent.

        op 0/1 = join (two weights), 2 = leave a random member.
        """
        can = CanOverlay(dims=2, rng=np.random.default_rng(42))
        next_id = 0
        rng = np.random.default_rng(7)
        for op in ops:
            if op < 2 or len(can) == 0:
                can.join(next_id, host=next_id)
                next_id += 1
            else:
                members = list(can.nodes)
                can.leave(members[int(rng.integers(0, len(members)))])
        if len(can):
            can.check_invariants()
            point = tuple(rng.random(2))
            assert can.route(can.random_node(), point).success


class TestCrashTakeover:
    def test_takeover_dead_absorbs_and_charges(self):
        stats = MessageStats()
        can = build_can(16, stats=stats)
        victim = 5
        takers = can.takeover_dead(victim)
        assert victim not in can.nodes
        assert takers and victim not in takers
        assert can.total_volume() == pytest.approx(1.0)
        can.check_invariants()
        assert stats.get("crash_takeover") > 0

    def test_dead_members_never_absorb_each_other(self):
        can = build_can(16)
        victim = 3
        dead = set(can.nodes[victim].neighbors)
        takers = can.takeover_dead(victim, dead=dead)
        assert takers.isdisjoint(dead | {victim})
        can.check_invariants()

    def test_fallback_to_global_survivor_when_all_neighbors_dead(self):
        stats = MessageStats()
        can = build_can(24, stats=stats)
        victim = 7
        # every neighbor (and neighbor's neighbor, to kill siblings too)
        # is a corpse: the sibling/neighbor search must come up empty
        dead = set(can.nodes[victim].neighbors)
        for d in list(dead):
            dead |= set(can.nodes[d].neighbors)
        dead.discard(victim)
        survivors = set(can.nodes) - dead - {victim}
        assert survivors, "scenario needs at least one survivor"
        takers = can.takeover_dead(victim, dead=dead)
        assert takers <= survivors
        assert stats.get("takeover_fallback") > 0
        assert can.total_volume() == pytest.approx(1.0)
        can.check_invariants()

    def test_no_survivor_at_all_raises(self):
        can = build_can(4)
        with pytest.raises(RuntimeError):
            can.takeover_dead(0, dead={1, 2, 3})
