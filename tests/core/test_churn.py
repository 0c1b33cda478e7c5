"""Churn traces and the churn driver."""

import numpy as np
import pytest

from repro.core import ChurnDriver, ChurnEvent, OverlayParams, TopologyAwareOverlay, poisson_churn
from repro.netsim import ManualLatencyModel, Network


@pytest.fixture
def overlay(tiny_topology):
    network = Network(tiny_topology, ManualLatencyModel())
    ov = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=32, policy="softstate", landmarks=6, seed=2)
    )
    ov.build()
    return ov


class TestTrace:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, kind="explode")

    def test_poisson_counts_scale_with_rate(self, rng):
        few = poisson_churn(np.random.default_rng(1), 100.0, 0.1, 0.1)
        many = poisson_churn(np.random.default_rng(1), 100.0, 1.0, 1.0)
        assert len(many) > len(few)

    def test_sorted_by_time(self, rng):
        events = poisson_churn(rng, 50.0, 0.5, 0.5)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= t < 50.0 for t in times)

    def test_zero_rate_produces_nothing(self, rng):
        assert poisson_churn(rng, 10.0, 0.0, 0.0) == []

    def test_zero_duration_produces_nothing(self, rng):
        assert poisson_churn(rng, 0.0, 1.0, 1.0) == []

    def test_deterministic_under_fixed_seed(self):
        first = poisson_churn(np.random.default_rng(42), 100.0, 0.5, 0.5)
        second = poisson_churn(np.random.default_rng(42), 100.0, 0.5, 0.5)
        assert first == second
        assert first != poisson_churn(np.random.default_rng(43), 100.0, 0.5, 0.5)

    def test_equal_time_ties_order_join_first(self):
        class FixedDraws:
            """Stands in for a Generator; replays scripted gaps."""

            def __init__(self, draws):
                self.draws = list(draws)

            def exponential(self, scale):
                return self.draws.pop(0)

        # join stream: gap 2 then past the horizon; leave stream: same,
        # so both processes emit exactly one event at t=2.0
        events = poisson_churn(FixedDraws([2.0, 100.0, 2.0, 100.0]), 10.0, 1.0, 1.0)
        assert [(e.time, e.kind) for e in events] == [(2.0, "join"), (2.0, "leave")]


class TestDriver:
    def test_join_event_grows_overlay(self, overlay):
        driver = ChurnDriver(overlay)
        n = len(overlay)
        driver.apply(ChurnEvent(time=1.0, kind="join"))
        assert len(overlay) == n + 1
        assert overlay.network.clock.now == 1.0

    def test_leave_event_shrinks_overlay(self, overlay):
        driver = ChurnDriver(overlay)
        n = len(overlay)
        driver.apply(ChurnEvent(time=1.0, kind="leave"))
        assert len(overlay) == n - 1

    def test_min_nodes_floor(self, overlay):
        driver = ChurnDriver(overlay, min_nodes=len(overlay))
        assert not driver.apply(ChurnEvent(time=1.0, kind="leave"))
        assert driver.skipped == 1

    def test_run_produces_timeline(self, overlay, rng):
        events = poisson_churn(rng, 20.0, 0.6, 0.4)
        driver = ChurnDriver(overlay, rng=rng)
        rows = driver.run(events, measure_every=10, stretch_samples=20)
        assert rows  # at least the final row
        for row in rows:
            assert row["nodes"] >= driver.min_nodes
            assert row["mean_stretch"] is None or row["mean_stretch"] >= 1.0 - 1e-9
        times = [r["time"] for r in rows]
        assert times == sorted(times)

    def test_overlay_consistent_after_trace(self, overlay, rng):
        events = poisson_churn(rng, 30.0, 0.5, 0.5)
        ChurnDriver(overlay, rng=rng, graceful_fraction=0.5).run(events)
        overlay.ecan.can.check_invariants()
        stretch = overlay.measure_stretch(samples=20, rng=rng)
        assert stretch.size > 0

    def test_trace_replays_relative_to_first_use_epoch(self, overlay):
        """Event times are trace-relative: a clock another experiment
        already advanced must not make the whole trace fire instantly."""
        clock = overlay.network.clock
        clock.run_until(500.0)
        driver = ChurnDriver(overlay)
        driver.apply(ChurnEvent(time=10.0, kind="join"))
        assert clock.now == 510.0
        driver.apply(ChurnEvent(time=25.0, kind="join"))
        assert clock.now == 525.0

    def test_past_event_never_rewinds_clock(self, overlay):
        clock = overlay.network.clock
        driver = ChurnDriver(overlay)
        driver.apply(ChurnEvent(time=50.0, kind="join"))
        # trace disorder (or an epoch in the past) must not move time back
        driver.apply(ChurnEvent(time=10.0, kind="join"))
        assert clock.now == 50.0

    def test_skipped_events_not_counted_as_applied(self, overlay):
        driver = ChurnDriver(overlay, min_nodes=len(overlay))
        driver.apply(ChurnEvent(time=1.0, kind="leave"))
        driver.apply(ChurnEvent(time=2.0, kind="leave"))
        driver.apply(ChurnEvent(time=3.0, kind="join"))
        assert driver.skipped == 2
        assert driver.applied == 1

    def test_measurement_traffic_not_charged(self, overlay, rng):
        driver = ChurnDriver(overlay, rng=rng)
        stats = overlay.network.stats
        before = stats.total()
        rows = driver.run([], measure_every=0, stretch_samples=20)
        # the final sample routed messages, but they must be refunded
        assert stats.total() == before
        assert rows[-1]["mean_stretch"] is not None
