"""TopologyAwareOverlay: lifecycle, routing, stretch, adaptivity."""

import numpy as np
import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import ManualLatencyModel, Network


def build(topology, policy="softstate", n=48, seed=5, **overrides):
    network = Network(topology, ManualLatencyModel())
    params = OverlayParams(
        num_nodes=n, policy=policy, landmarks=6, seed=seed, **overrides
    )
    overlay = TopologyAwareOverlay(network, params)
    overlay.build()
    return overlay


@pytest.fixture(scope="module")
def softstate_overlay(tiny_topology):
    return build(tiny_topology)


class TestBuild:
    def test_builds_requested_size(self, softstate_overlay):
        assert len(softstate_overlay) == 48

    def test_every_node_has_identity_and_publication(self, softstate_overlay):
        store = softstate_overlay.store
        for node_id in softstate_overlay.node_ids:
            assert node_id in store.registry
            assert store._published.get(node_id)

    def test_distinct_hosts(self, softstate_overlay):
        hosts = [
            softstate_overlay.ecan.can.nodes[n].host
            for n in softstate_overlay.node_ids
        ]
        assert len(set(hosts)) == len(hosts)

    def test_can_invariants_hold(self, softstate_overlay):
        softstate_overlay.ecan.can.check_invariants()

    def test_incremental_build(self, tiny_topology):
        overlay = build(tiny_topology, n=20)
        overlay.build(num_nodes=30)
        assert len(overlay) == 30

    def test_policies_share_membership_for_same_seed(self, tiny_topology):
        a = build(tiny_topology, policy="random", n=32, seed=3)
        b = build(tiny_topology, policy="optimal", n=32, seed=3)
        hosts_a = sorted(a.ecan.can.nodes[n].host for n in a.node_ids)
        hosts_b = sorted(b.ecan.can.nodes[n].host for n in b.node_ids)
        assert hosts_a == hosts_b
        zones_a = sorted(str(a.ecan.can.nodes[n].zone) for n in a.node_ids)
        zones_b = sorted(str(b.ecan.can.nodes[n].zone) for n in b.node_ids)
        assert zones_a == zones_b

    def test_unknown_policy_rejected(self, tiny_topology):
        network = Network(tiny_topology, ManualLatencyModel())
        overlay = TopologyAwareOverlay(network, OverlayParams(num_nodes=4, landmarks=4))
        with pytest.raises(ValueError):
            overlay._make_policy("nope")

    def test_describe(self, softstate_overlay):
        info = softstate_overlay.describe()
        assert info["nodes"] == 48
        assert info["policy"] == "softstate"
        assert info["map_entries"] > 0


class TestRouting:
    def test_route_between_members(self, softstate_overlay, rng):
        ids = softstate_overlay.node_ids
        for _ in range(20):
            src, dst = rng.choice(ids, size=2, replace=False)
            result, stretch = softstate_overlay.route_between(int(src), int(dst))
            assert result.success
            assert result.owner == int(dst)
            if stretch is not None:
                assert stretch >= 1.0 - 1e-9

    def test_measure_stretch_returns_sane_values(self, softstate_overlay):
        stretch = softstate_overlay.measure_stretch(samples=60)
        assert stretch.size > 0
        assert (stretch >= 1.0 - 1e-9).all()
        assert np.isfinite(stretch).all()

    def test_prewarm_of_an_empty_overlay_warms_nothing(self, tiny_topology):
        network = Network(tiny_topology, ManualLatencyModel())
        overlay = TopologyAwareOverlay(network, OverlayParams(num_nodes=8, seed=5))
        rows = network.oracle.cache_info()["rows"]  # the landmarks' own
        assert overlay.prewarm_latencies() == 0
        assert network.oracle.cache_info()["rows"] == rows

    def test_measure_hops(self, softstate_overlay):
        from repro.experiments.fig02_hops import _measure_hops

        mean = _measure_hops(
            softstate_overlay.ecan,
            softstate_overlay.node_ids,
            30,
            np.random.default_rng(0),
        )
        assert mean >= 1.0  # distinct members are at least one hop apart


class TestPolicyOrdering:
    def test_softstate_beats_random_and_loses_to_optimal(self, small_topology):
        """The paper's headline ordering on mean stretch."""
        means = {}
        for policy in ("random", "softstate", "optimal"):
            overlay = build(small_topology, policy=policy, n=128, seed=11)
            rng = np.random.default_rng(99)
            means[policy] = overlay.measure_stretch(samples=400, rng=rng).mean()
        assert means["softstate"] < means["random"]
        assert means["optimal"] <= means["softstate"] * 1.25


class TestChurnLifecycle:
    def test_remove_node(self, tiny_topology):
        overlay = build(tiny_topology, n=24)
        victim = overlay.node_ids[0]
        overlay.remove_node(victim)
        assert victim not in overlay.ecan.can.nodes
        assert len(overlay) == 23
        overlay.ecan.can.check_invariants()

    def test_remove_unknown(self, tiny_topology):
        overlay = build(tiny_topology, n=8)
        with pytest.raises(KeyError):
            overlay.remove_node(12345)

    def test_host_is_reusable_after_departure(self, tiny_topology):
        overlay = build(tiny_topology, n=8)
        victim = overlay.node_ids[0]
        host = overlay.ecan.can.nodes[victim].host
        overlay.remove_node(victim)
        overlay._pick_host = lambda: host
        newcomer = overlay.add_node()
        assert overlay.ecan.can.nodes[newcomer].host == host

    def test_routing_after_mixed_churn(self, tiny_topology, rng):
        overlay = build(tiny_topology, n=32)
        for _ in range(10):
            overlay.remove_node(overlay.random_member(), graceful=bool(rng.random() < 0.5))
            overlay.add_node()
        stretch = overlay.measure_stretch(samples=40, rng=rng)
        assert stretch.size > 0


class TestAdaptive:
    def test_enable_adaptive_installs_subscriptions(self, tiny_topology):
        overlay = build(tiny_topology, n=32)
        node_id = overlay.node_ids[0]
        installed = overlay.enable_adaptive(node_id)
        assert installed == len(overlay.pubsub.subscriptions_of(node_id))
        assert installed > 0

    def test_enable_adaptive_idempotent(self, tiny_topology):
        overlay = build(tiny_topology, n=32)
        node_id = overlay.node_ids[0]
        overlay.enable_adaptive(node_id)
        assert overlay.enable_adaptive(node_id) == 0

    def test_closer_candidate_triggers_reselection(self, small_topology):
        """A newly joined closer candidate must eventually appear in
        subscribers' tables via the pub/sub path."""
        overlay = build(small_topology, n=96, seed=13)
        for node_id in list(overlay.node_ids):
            overlay.enable_adaptive(node_id)
        before = overlay.network.stats.get("pubsub_notify")
        refreshed_tables = 0
        for _ in range(12):
            overlay.add_node()
        after = overlay.network.stats.get("pubsub_notify")
        assert after > before  # notifications flowed

    def test_adaptive_departed_node_not_refreshed(self, tiny_topology):
        overlay = build(tiny_topology, n=24)
        node_id = overlay.node_ids[0]
        overlay.enable_adaptive(node_id)
        overlay.remove_node(node_id)
        # joining more nodes must not crash on the departed subscriber
        for _ in range(4):
            overlay.add_node()
