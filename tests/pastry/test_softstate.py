"""Soft-state on Pastry: regions, placement, lookup, slot policies."""

import numpy as np
import pytest

from repro.pastry import build_soft_state_pastry


@pytest.fixture
def ring_pair(tiny_network):
    ring, softstate = build_soft_state_pastry(
        tiny_network, 48, landmarks=6, policy_name="softstate", digits=10, seed=4
    )
    return ring, softstate


class TestRegions:
    def test_region_bounds_align_with_prefix(self, ring_pair):
        ring, softstate = ring_pair
        node_id = ring.members()[0]
        for row in softstate.useful_rows():
            region = softstate.region_of(node_id, row)
            lo, hi = softstate.region_bounds(region)
            assert lo <= node_id < hi
            assert (hi - lo) == ring.space >> (row * ring.digit_bits)

    def test_map_key_in_condensed_prefix(self, ring_pair):
        ring, softstate = ring_pair
        for node_id, record in list(softstate.registry.items())[:10]:
            for region in softstate.regions_of(node_id):
                key = softstate.map_key(record.landmark_number, region)
                lo, hi = softstate.region_bounds(region)
                assert lo <= key < lo + max(1, int((hi - lo) * softstate.condense_rate))


class TestPublication:
    def test_every_member_published(self, ring_pair):
        ring, softstate = ring_pair
        expected = len(list(softstate.useful_rows()))
        for node_id in ring.members():
            held = sum(node_id in bucket for bucket in softstate.maps.values())
            assert held == expected

    def test_withdraw_on_leave(self, ring_pair):
        ring, softstate = ring_pair
        victim = ring.members()[0]
        ring.leave(victim)
        assert victim not in softstate.registry
        assert all(victim not in bucket for bucket in softstate.maps.values())


class TestLookup:
    def test_sorted_by_vector_distance(self, ring_pair):
        ring, softstate = ring_pair
        querier = ring.members()[0]
        region = softstate.region_of(querier, 1)
        records = softstate.lookup(querier, region)
        own = np.asarray(softstate.registry[querier].landmark_vector)
        gaps = [
            float(np.linalg.norm(np.asarray(r.landmark_vector) - own))
            for r in records
        ]
        assert gaps == sorted(gaps)
        assert querier not in [r.node_id for r in records]

    def test_max_results(self, ring_pair):
        ring, softstate = ring_pair
        querier = ring.members()[1]
        region = softstate.region_of(querier, 1)
        assert len(softstate.lookup(querier, region, max_results=2)) <= 2


class TestPolicies:
    @pytest.mark.parametrize("policy", ["random", "first", "softstate", "optimal"])
    def test_routable_under_every_policy(self, tiny_network, policy):
        ring, _ = build_soft_state_pastry(
            tiny_network, 40, landmarks=5, policy_name=policy, digits=9, seed=2
        )
        rng = np.random.default_rng(5)
        for _ in range(40):
            result = ring.route(ring.random_member(), int(rng.integers(0, ring.space)))
            assert result.success

    def test_unknown_policy(self, tiny_network):
        with pytest.raises(ValueError):
            build_soft_state_pastry(tiny_network, 8, policy_name="tarot")

    def test_zero_rtt_budget_is_refused_like_ecan(self, tiny_network):
        """Refused up front, as ``OverlayParams`` refuses it on eCAN,
        instead of failing inside the first join."""
        with pytest.raises(ValueError, match="rtt_budget must be >= 1"):
            build_soft_state_pastry(tiny_network, 48, rtt_budget=0)

    def test_softstate_slots_respect_prefix(self, ring_pair):
        ring, _ = ring_pair
        for node_id in ring.members()[:10]:
            for (row, digit), entry in ring.nodes[node_id].table.items():
                assert ring.shared_prefix(node_id, entry) >= row
                assert ring.digit(entry, row) == digit

    def test_generality_ordering(self, small_topology):
        """Pastry with soft-state slot selection: same ordering as eCAN,
        with the big margin base-4 prefix routing allows."""
        from repro.netsim import ManualLatencyModel, Network

        means = {}
        for policy in ("random", "softstate", "optimal"):
            network = Network(small_topology, ManualLatencyModel())
            ring, _ = build_soft_state_pastry(
                network, 128, landmarks=8, policy_name=policy, digits=12, seed=7
            )
            stretch = ring.measure_stretch(300, rng=np.random.default_rng(11))
            means[policy] = stretch.mean()
        assert means["softstate"] < 0.6 * means["random"]
        assert means["optimal"] <= means["softstate"] * 1.2
