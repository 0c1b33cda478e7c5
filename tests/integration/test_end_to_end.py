"""End-to-end integration: the whole system working together.

These tests exercise multi-layer interactions the unit tests cannot:
landmark measurement -> CAN join -> soft-state publication -> map
lookup -> RTT-confirmed selection -> expressway routing -> pub/sub
repair, across churn and maintenance policies.
"""

import numpy as np
import pytest

from repro.core import (
    ChurnDriver,
    OverlayParams,
    TopologyAwareOverlay,
    poisson_churn,
)
from repro.netsim import GeneratedLatencyModel, ManualLatencyModel, Network, NoisyLatencyModel
from repro.softstate import MaintenancePolicy


def build(topology, latency_model, policy="softstate", n=96, seed=21):
    network = Network(topology, latency_model)
    overlay = TopologyAwareOverlay(
        network,
        OverlayParams(num_nodes=n, policy=policy, landmarks=8, seed=seed),
    )
    overlay.build()
    return overlay


class TestFullSystem:
    def test_headline_ordering_holds_on_generated_latencies(self, small_topology):
        means = {}
        for policy in ("random", "softstate", "optimal"):
            overlay = build(small_topology, GeneratedLatencyModel(), policy=policy)
            rng = np.random.default_rng(5)
            means[policy] = overlay.measure_stretch(samples=300, rng=rng).mean()
        assert means["optimal"] <= means["softstate"] * 1.3
        assert means["softstate"] < means["random"]

    def test_works_on_dense_stub_topology(self, small_topology_dense):
        overlay = build(small_topology_dense, ManualLatencyModel())
        stretch = overlay.measure_stretch(samples=200)
        assert stretch.size > 0
        assert np.isfinite(stretch).all()

    def test_robust_to_triangle_violating_latencies(self, small_topology):
        """The paper motivates soft-state partly because triangle
        inequality fails on the real Internet; the machinery must not
        depend on it."""
        noisy = NoisyLatencyModel(base=GeneratedLatencyModel(), sigma=0.6, seed=3)
        overlay = build(small_topology, noisy, n=64)
        stretch = overlay.measure_stretch(samples=150)
        assert stretch.size > 0
        assert (stretch >= 1.0 - 1e-6).all()


class TestChurnIntegration:
    @pytest.mark.parametrize(
        "policy",
        [MaintenancePolicy.REACTIVE, MaintenancePolicy.PERIODIC, MaintenancePolicy.PROACTIVE],
    )
    def test_survives_churn_under_every_maintenance_policy(
        self, small_topology, policy
    ):
        network = Network(small_topology, ManualLatencyModel())
        overlay = TopologyAwareOverlay(
            network,
            OverlayParams(num_nodes=80, policy="softstate", landmarks=8, seed=31),
            maintenance_policy=policy,
        )
        overlay.build()
        overlay.maintenance.poll_interval = 5.0
        overlay.maintenance.start()
        rng = np.random.default_rng(17)
        events = poisson_churn(rng, 40.0, 0.8, 0.8)
        driver = ChurnDriver(overlay, rng=rng, graceful_fraction=0.5, min_nodes=20)
        rows = driver.run(events, measure_every=20, stretch_samples=30)
        overlay.maintenance.stop()
        overlay.ecan.can.check_invariants()
        assert rows[-1]["mean_stretch"] is not None
        # routing still works for everyone
        ok = sum(
            overlay.route_between(
                overlay.random_member(), overlay.random_member()
            )[0].success
            for _ in range(30)
        )
        assert ok == 30

    def test_periodic_policy_bounds_staleness(self, small_topology):
        network = Network(small_topology, ManualLatencyModel())
        overlay = TopologyAwareOverlay(
            network,
            OverlayParams(num_nodes=60, policy="softstate", landmarks=8, seed=33),
            maintenance_policy=MaintenancePolicy.PERIODIC,
        )
        overlay.build()
        overlay.maintenance.poll_interval = 10.0
        overlay.maintenance.start()
        for i in range(10):
            network.clock.run_until(network.clock.now + 2.0)
            overlay.remove_node(overlay.random_member(), graceful=False)
        network.clock.run_until(network.clock.now + 20.0)
        assert overlay.maintenance.stale_entries() == 0

    def test_adaptive_overlay_recovers_selection_quality(self, small_topology):
        """Grow 64 -> 128 with pub/sub adaptation on: final stretch must
        land near a freshly built 128-node soft-state overlay and beat
        the same growth without adaptation."""
        def grown(adaptive: bool) -> float:
            overlay = build(small_topology, ManualLatencyModel(), n=64, seed=41)
            if adaptive:
                for node_id in list(overlay.node_ids):
                    overlay.enable_adaptive(node_id)
            for _ in range(64):
                new_id = overlay.add_node()
                if adaptive:
                    overlay.enable_adaptive(new_id)
            rng = np.random.default_rng(9)
            return overlay.measure_stretch(samples=300, rng=rng).mean()

        with_pubsub = grown(adaptive=True)
        without = grown(adaptive=False)
        assert with_pubsub <= without * 1.05


class TestMessageEconomy:
    def test_per_join_cost_scales_logarithmically(self, small_topology):
        """Soft-state publication costs O(log N) routes per join; the
        per-join message bill must grow slowly with N."""
        network = Network(small_topology, ManualLatencyModel())
        overlay = TopologyAwareOverlay(
            network,
            OverlayParams(num_nodes=32, policy="softstate", landmarks=8, seed=51),
        )
        overlay.build()
        stats = network.stats
        before = stats.total()
        for _ in range(8):
            overlay.add_node()
        cost_small = (stats.total() - before) / 8
        overlay.build(num_nodes=160)
        before = stats.total()
        for _ in range(8):
            overlay.add_node()
        cost_large = (stats.total() - before) / 8
        # 4x size should cost far less than 4x messages per join
        assert cost_large < 3.0 * cost_small

    def test_stats_categories_cover_all_traffic(self, tiny_topology):
        overlay = build(tiny_topology, ManualLatencyModel(), n=32)
        snapshot = overlay.network.stats.snapshot()
        expected_some = {
            "landmark_probe",
            "softstate_publish",
            "softstate_lookup",
            "neighbor_probe",
            "join_route",
        }
        assert expected_some.issubset(snapshot.keys())
        assert all(v >= 0 for v in snapshot.values())
