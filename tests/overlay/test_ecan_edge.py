"""eCAN edge cases beyond the main suite."""

import numpy as np
import pytest

from repro.overlay import EcanOverlay
from repro.overlay.ecan import MAX_LEVEL


class TestBootstrap:
    def test_single_node_routes_to_itself(self):
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(1))
        ecan.join(0, host=0)
        result = ecan.route(0, (0.7, 0.7))
        assert result.owner == 0
        assert result.hops == 0

    def test_two_node_overlay(self):
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(1))
        ecan.join(0, host=0)
        ecan.join(1, host=1)
        for point in ((0.1, 0.1), (0.9, 0.9)):
            result = ecan.route(ecan.can.random_node(), point)
            assert result.success

    def test_rejoining_same_id_after_leave(self):
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(1))
        for i in range(8):
            ecan.join(i, host=i)
        ecan.leave(3)
        ecan.join(3, host=33)
        assert ecan.can.nodes[3].host == 33
        ecan.can.check_invariants()


class TestTablesEdge:
    def test_max_level_caps_indexing(self):
        assert MAX_LEVEL >= 16  # sanity: cap far above realistic depths

    def test_refresh_entry_on_missing_candidates_returns_none_or_member(self):
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(2))
        ecan.join(0, host=0)
        ecan.join(1, host=1)
        node = ecan.can.nodes[0]
        if node.zone.max_level >= 1:
            cell = node.zone.cell(1)
            entry = ecan.refresh_entry(0, 1, cell)
            assert entry is None or entry in ecan.can.nodes

    def test_three_dim_table_has_seven_siblings(self):
        ecan = EcanOverlay(dims=3, rng=np.random.default_rng(3))
        for i in range(64):
            ecan.join(i, host=i)
        for node_id in ecan.can.nodes:
            ecan.build_table(node_id)
        row_sizes = {
            len(row)
            for table in ecan._tables.values()
            for row in table.values()
        }
        assert max(row_sizes, default=0) == 7  # 2^3 - 1

    def test_fallback_rng_does_not_disturb_join_points(self):
        """Two overlays differing only in policy-fallback usage grow the
        same zone structure (the rng-isolation guarantee)."""
        from repro.overlay import NeighborPolicy

        class DecliningPolicy(NeighborPolicy):
            name = "declines"

            def select(self, overlay, node_id, slot, candidates):
                return None  # force the fallback path every time

        a = EcanOverlay(dims=2, rng=np.random.default_rng(7))
        b = EcanOverlay(dims=2, rng=np.random.default_rng(7))
        b.policy = DecliningPolicy()
        for i in range(48):
            a.join(i, host=i)
            b.join(i, host=i)
        zones_a = sorted(str(n.zone) for n in a.can.nodes.values())
        zones_b = sorted(str(n.zone) for n in b.can.nodes.values())
        assert zones_a == zones_b


class TestRoutingEdge:
    def test_route_to_exact_boundary_point(self):
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(4))
        for i in range(32):
            ecan.join(i, host=i)
        for point in ((0.5, 0.5), (0.0, 0.0), (0.25, 0.75)):
            result = ecan.route(ecan.can.random_node(), point)
            assert result.success
            assert ecan.can.nodes[result.owner].contains(point)

    def test_hop_budget_failure_reported_not_raised(self):
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(5))
        for i in range(32):
            ecan.join(i, host=i)
        result = ecan.route(ecan.can.random_node(), (0.9, 0.9), max_hops=0)
        if not result.success:
            assert result.owner is None
