"""eCAN: high-order zones, tables, policies and routing."""

import numpy as np
import pytest

from repro.netsim.network import MessageStats
from repro.overlay import (
    ClosestNeighborPolicy,
    EcanOverlay,
    RandomNeighborPolicy,
)
from repro.overlay.zone import cell_center, cell_zone, interleave
from tests.overlay.test_integer_geometry import float_cell, route_key


def build_ecan(n: int, seed: int = 0, stats=None, policy=None, dims: int = 2):
    ecan = EcanOverlay(dims=dims, rng=np.random.default_rng(seed), stats=stats)
    if policy is not None:
        ecan.policy = policy
    for i in range(n):
        ecan.join(i, host=1000 + i)
    return ecan


class TestMembership:
    def test_members_index_is_containment(self, rng):
        ecan = build_ecan(48)
        for level, buckets in ecan._members.items():
            for cell, node_ids in buckets.items():
                box = cell_zone(cell, level)
                for node_id in node_ids:
                    zone = ecan.can.nodes[node_id].zone
                    assert box.contains(zone.center()) and zone.max_level >= level

    def test_members_returns_owner_when_cell_empty(self):
        # 2 nodes: level-2 cells have no contained zones yet
        ecan = build_ecan(2)
        members = ecan.members(2, (0, 0))
        assert len(members) == 1
        assert members[0] in ecan.can.nodes

    def test_members_excludes_requested_node(self):
        ecan = build_ecan(40)
        node = ecan.can.nodes[5]
        level = node.zone.max_level
        if level >= 1:
            cell = node.zone.cell(level)
            assert 5 not in ecan.members(level, cell, exclude=5)

    def test_leave_cleans_index(self):
        ecan = build_ecan(30)
        ecan.leave(3)
        for buckets in ecan._members.values():
            for node_ids in buckets.values():
                assert 3 not in node_ids
        assert 3 not in ecan._tables


class TestTables:
    def test_table_covers_all_levels_and_siblings(self):
        # tables fill lazily as zones deepen; an explicit rebuild must
        # produce full coverage of every level and sibling cell
        ecan = build_ecan(64)
        for node_id in ecan.can.nodes:
            ecan.build_table(node_id)
        for node_id, node in ecan.can.nodes.items():
            table = ecan.table_of(node_id)
            assert set(table) == set(range(1, node.zone.max_level + 1))
            for level, row in table.items():
                # 2^d - 1 = 3 sibling cells in 2 dimensions
                assert len(row) == 3
                for cell, entry in row.items():
                    assert entry in ecan.can.nodes
                    assert entry != node_id

    def test_entry_valid_checks_overlap(self):
        ecan = build_ecan(32)
        node_id = next(iter(ecan.can.nodes))
        ecan.build_table(node_id)
        table = ecan.table_of(node_id)
        level, row = next(iter(table.items()))
        cell, entry = next(iter(row.items()))
        assert ecan.entry_valid(entry, level, cell)
        assert not ecan.entry_valid(99999, level, cell)

    def test_table_entry_repairs_dead_entry(self):
        stats = MessageStats()
        ecan = build_ecan(48, stats=stats)
        # find a node whose table references some victim
        node_id, level, cell, entry = ecan.slots()[0]
        ecan.leave(entry)
        # deciding toward the victim's cell names the slot, repairs nothing
        point = cell_center(cell, level)
        current = ecan.can.nodes[node_id]
        before = stats.snapshot()
        decision = ecan.decide(current, route_key(ecan, point), point, {node_id})
        assert decision == (None, level, interleave(cell), True)
        assert ecan.table_of(node_id)[level][cell] == entry
        assert stats.snapshot() == before
        new_entry, repaired = ecan.table_entry(node_id, level, cell)
        assert repaired
        assert new_entry is None or new_entry in ecan.can.nodes
        assert stats.get("table_repair") >= 1

    def test_refresh_entry_changes_table(self):
        ecan = build_ecan(48, seed=3)
        node_id = 10
        table = ecan.table_of(node_id)
        level, row = next(iter(table.items()))
        cell = next(iter(row))
        entry = ecan.refresh_entry(node_id, level, cell)
        assert ecan.table_of(node_id)[level][cell] == entry


class TestPolicies:
    def test_closest_policy_picks_minimum_latency(self, tiny_network, rng):
        hosts = tiny_network.sample_hosts(40, rng)
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(1))
        ecan.policy = ClosestNeighborPolicy(tiny_network)
        for i, host in enumerate(hosts):
            ecan.join(i, int(host))
        # rebuild so every entry reflects the final candidate sets,
        # then verify a sampled entry is indeed the closest candidate
        for node_id in ecan.can.nodes:
            ecan.build_table(node_id)
        for node_id in list(ecan.can.nodes)[:10]:
            node = ecan.can.nodes[node_id]
            table = ecan.table_of(node_id)
            for level, row in table.items():
                for cell, entry in row.items():
                    candidates = ecan.members(level, cell, exclude=node_id)
                    if entry not in candidates:
                        continue  # entry may predate later joins
                    best = min(
                        candidates,
                        key=lambda c: (
                            tiny_network.latency(node.host, ecan.can.nodes[c].host),
                            c,
                        ),
                    )
                    entry_latency = tiny_network.latency(
                        node.host, ecan.can.nodes[entry].host
                    )
                    best_latency = tiny_network.latency(
                        node.host, ecan.can.nodes[best].host
                    )
                    assert entry_latency <= best_latency + 1e-9 or entry == best

    def test_random_policy_is_deterministic_per_seed(self):
        a = build_ecan(32, seed=5, policy=RandomNeighborPolicy(np.random.default_rng(9)))
        b = build_ecan(32, seed=5, policy=RandomNeighborPolicy(np.random.default_rng(9)))
        assert a._tables == b._tables


class TestPointsOutsideTheSpace:
    """A point no zone holds is refused at the routing boundary."""

    BAD = ((1.0, 0.5), (0.5, 0.1, 0.2), (float("nan"), 0.5), (-5e-324, 0.5))

    def test_route_next_hop_and_owner_lookup_refuse_it(self):
        stats = MessageStats()
        ecan = build_ecan(40, stats=stats)
        for point in self.BAD:
            with pytest.raises(ValueError):
                ecan.route(3, point)
            with pytest.raises(ValueError):
                ecan.next_hop(3, point)
            with pytest.raises(ValueError):
                ecan.can.owner_of_point(point)
        # refused before the first hop: nothing walked, nothing charged
        assert stats.get("ecan_route") == 0


class TestRouting:
    def test_route_reaches_owner(self, rng):
        ecan = build_ecan(80, seed=2)
        for _ in range(60):
            point = tuple(rng.random(2))
            result = ecan.route(ecan.can.random_node(), point)
            assert result.success
            assert ecan.can.nodes[result.owner].contains(point)

    def test_hop_breakdown_sums(self, rng):
        ecan = build_ecan(80, seed=2)
        result = ecan.route(ecan.can.random_node(), tuple(rng.random(2)))
        assert result.expressway_hops + result.can_hops == result.hops

    def test_ecan_beats_can_on_hops(self, rng):
        from repro.overlay import CanOverlay

        n = 400
        ecan = build_ecan(n, seed=4)
        can = CanOverlay(dims=2, rng=np.random.default_rng(4))
        for i in range(n):
            can.join(i, host=i)
        points = [tuple(rng.random(2)) for _ in range(80)]
        ecan_hops = np.mean([ecan.route(ecan.can.random_node(), p).hops for p in points])
        can_hops = np.mean([can.route(can.random_node(), p).hops for p in points])
        assert ecan_hops < can_hops

    def test_logarithmic_scaling(self, rng):
        means = {}
        for n in (64, 512):
            ecan = build_ecan(n, seed=6)
            samples = [
                ecan.route(ecan.can.random_node(), tuple(rng.random(2))).hops
                for _ in range(60)
            ]
            means[n] = np.mean(samples)
        # 8x more nodes should cost ~log(8)/log(4) extra prefix hops, far
        # less than the sqrt growth of plain CAN (which would be ~2.8x)
        assert means[512] < 2.2 * means[64]

    def test_routing_after_heavy_churn(self, rng):
        ecan = build_ecan(100, seed=8)
        for i in range(0, 100, 3):
            ecan.leave(i)
        for j in range(200, 230):
            ecan.join(j, host=j)
        ecan.can.check_invariants()
        for _ in range(50):
            result = ecan.route(ecan.can.random_node(), tuple(rng.random(2)))
            assert result.success

    def test_first_divergence_is_used(self, rng):
        """Expressway hops land inside the target's differing cell."""
        ecan = build_ecan(128, seed=9)
        point = tuple(rng.random(2))
        start = ecan.can.random_node()
        result = ecan.route(start, point)
        if result.expressway_hops:
            # after the first expressway hop, the prefix agreement with
            # the target must be at least as long as the start's
            first_hop = result.path[1]
            start_zone = ecan.can.nodes[start].zone

            def agreement(node_id):
                zone = ecan.can.nodes[node_id].zone
                level = 0
                for l in range(1, zone.max_level + 1):
                    if zone.cell(l) != float_cell(point, l):
                        break
                    level = l
                return level

            if first_hop in ecan.can.nodes and start in ecan.can.nodes:
                assert agreement(first_hop) >= agreement(start)
