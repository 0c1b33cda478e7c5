"""Soft-state on Chord: regions, placement, lookup, finger policies."""

import numpy as np
import pytest

from repro.chord import (
    ChordRegion,
    ChordRing,
    ChordSoftState,
)
from repro.chord.ring import in_interval
from repro.chord.softstate import build_soft_state_ring


@pytest.fixture
def ring_pair(tiny_network):
    ring, softstate = build_soft_state_ring(
        tiny_network, 48, landmarks=6, policy_name="softstate", bits=16, seed=4
    )
    return ring, softstate


class TestRegions:
    def test_bounds(self):
        region = ChordRegion(level=2, index=3)
        lo, hi = region.bounds(bits=8)
        assert (lo, hi) == (192, 256)

    def test_containing(self):
        region = ChordRegion.containing(200, level=2, bits=8)
        assert region == ChordRegion(level=2, index=3)
        lo, hi = region.bounds(8)
        assert lo <= 200 < hi

    def test_level_one_splits_ring_in_half(self):
        a = ChordRegion.containing(0, 1, 8)
        b = ChordRegion.containing(255, 1, 8)
        assert a != b


class TestPlacement:
    def test_map_key_inside_condensed_prefix(self, ring_pair):
        ring, softstate = ring_pair
        for node_id, record in list(softstate.registry.items())[:10]:
            for region in softstate.regions_of(node_id):
                key = softstate.map_key(record.landmark_number, region)
                lo, hi = region.bounds(ring.bits)
                condensed_hi = lo + max(
                    1, int((hi - lo) * softstate.condense_rate)
                )
                assert lo <= key < condensed_hi

    def test_close_landmark_numbers_get_close_keys(self, ring_pair):
        ring, softstate = ring_pair
        region = ChordRegion(level=1, index=0)
        keys = [softstate.map_key(n, region) for n in (100, 101, 5000)]
        assert abs(keys[0] - keys[1]) <= abs(keys[0] - keys[2])

    def test_every_member_published(self, ring_pair):
        ring, softstate = ring_pair
        for node_id in ring.members():
            assert node_id in softstate.registry
            held = sum(node_id in bucket for bucket in softstate.maps.values())
            assert held == len(list(softstate.levels_for()))

    def test_withdraw_on_leave(self, ring_pair):
        ring, softstate = ring_pair
        victim = ring.members()[0]
        ring.leave(victim)
        assert victim not in softstate.registry
        assert all(victim not in bucket for bucket in softstate.maps.values())

    def test_entries_per_node_totals(self, ring_pair):
        ring, softstate = ring_pair
        counts = softstate.entries_per_node()
        total = sum(len(bucket) for bucket in softstate.maps.values())
        assert sum(counts.values()) == total


class TestLookup:
    def test_returns_sorted_by_vector_distance(self, ring_pair):
        ring, softstate = ring_pair
        querier = ring.members()[0]
        region = ChordRegion(level=1, index=0)
        records = softstate.lookup(querier, region)
        own = np.asarray(softstate.registry[querier].landmark_vector)
        gaps = [
            float(np.linalg.norm(np.asarray(r.landmark_vector) - own))
            for r in records
        ]
        assert gaps == sorted(gaps)
        assert querier not in [r.node_id for r in records]

    def test_respects_max_results(self, ring_pair):
        ring, softstate = ring_pair
        querier = ring.members()[1]
        records = softstate.lookup(querier, ChordRegion(1, 1), max_results=3)
        assert len(records) <= 3

    def test_lookup_charges_route(self, ring_pair, tiny_network):
        ring, softstate = ring_pair
        before = tiny_network.stats.snapshot()
        softstate.lookup(ring.members()[2], ChordRegion(1, 0))
        delta = tiny_network.stats.delta(before)
        assert set(delta) <= {"softstate_lookup"}


class TestPolicies:
    @pytest.mark.parametrize("policy", ["random", "successor", "softstate", "optimal"])
    def test_build_produces_routable_ring(self, tiny_network, policy):
        ring, _ = build_soft_state_ring(
            tiny_network, 40, landmarks=5, policy_name=policy, bits=14, seed=2
        )
        rng = np.random.default_rng(5)
        for _ in range(30):
            result = ring.route(ring.random_member(), int(rng.integers(0, ring.space)))
            assert result.success

    def test_unknown_policy(self, tiny_network):
        with pytest.raises(ValueError):
            build_soft_state_ring(tiny_network, 8, policy_name="psychic")

    def test_zero_rtt_budget_is_refused_like_ecan(self, tiny_network):
        """Refused up front, as ``OverlayParams`` refuses it on eCAN,
        instead of failing inside the first join."""
        with pytest.raises(ValueError, match="rtt_budget must be >= 1"):
            build_soft_state_ring(tiny_network, 48, rtt_budget=0)

    def test_softstate_fingers_stay_in_interval(self, ring_pair):
        ring, _ = ring_pair
        for node_id in ring.members()[:10]:
            for index, entry in ring.nodes[node_id].fingers.items():
                lo, hi = ring.finger_interval(node_id, index)
                assert in_interval(entry, lo, hi, ring.space)

    def test_generality_ordering(self, small_topology):
        """The paper's claim ported to Chord: soft-state selection beats
        random finger choice and tracks the oracle."""
        from repro.netsim import ManualLatencyModel, Network

        means = {}
        for policy in ("random", "softstate", "optimal"):
            network = Network(small_topology, ManualLatencyModel())
            ring, _ = build_soft_state_ring(
                network, 128, landmarks=8, policy_name=policy, bits=18, seed=7
            )
            stretch = ring.measure_stretch(300, rng=np.random.default_rng(11))
            means[policy] = stretch.mean()
        assert means["softstate"] < means["random"]
        assert means["optimal"] <= means["softstate"] * 1.2
