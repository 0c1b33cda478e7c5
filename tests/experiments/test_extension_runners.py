"""Extension experiment runners (join cost, churn policies, resilience)."""

import pytest

from repro.experiments import churn_timeline, failure_resilience, join_cost
from repro.softstate.maintenance import MaintenancePolicy
from tests.experiments.test_runners import MICRO


class TestJoinCost:
    @pytest.fixture(scope="class")
    def rows(self):
        return join_cost.run(scale=MICRO, probe_joins=8)

    def test_categories_present(self, rows):
        for row in rows:
            assert row["landmark_probe"] == 15.0  # OverlayParams default
            assert row["total_per_join"] > 0

    def test_sublinear_growth(self, rows):
        growth = rows[-1]["total_per_join"] / rows[0]["total_per_join"]
        size_growth = rows[-1]["N"] / rows[0]["N"]
        assert growth < size_growth

    def test_total_covers_categories(self, rows):
        for row in rows:
            parts = sum(
                v for k, v in row.items() if k not in ("N", "total_per_join")
            )
            assert row["total_per_join"] >= parts - 1e-9


class TestChurnTimeline:
    @pytest.fixture(scope="class")
    def rows(self):
        return churn_timeline.run(scale=MICRO)

    def test_all_policies_covered(self, rows):
        assert {r["policy"] for r in rows} == {"reactive", "periodic", "proactive"}

    def test_periodic_pings_and_prunes(self, rows):
        by = {r["policy"]: r for r in rows}
        assert by["periodic"]["maintenance_pings"] > 0
        assert by["reactive"]["maintenance_pings"] == 0

    def test_routing_survives_every_policy(self, rows):
        for row in rows:
            assert row["final_stretch"] is not None
            assert row["final_stretch"] >= 1.0 - 1e-9

    def test_single_policy_timeline_monotone_time(self):
        result = churn_timeline.run_policy(
            MaintenancePolicy.REACTIVE, scale=MICRO
        )
        times = [r["time"] for r in result["timeline"]]
        assert times == sorted(times)

    def test_periodic_policy_polls_all_along_the_trace(self, monkeypatch):
        """One sweep's confirmation backoffs advance the shared clock in
        ms: a trace laid over fewer units than that is overtaken by the
        first poll and the periodic timer never fires again."""
        from repro.softstate.maintenance import MaintenanceDriver

        polls = []
        poll_once = MaintenanceDriver.poll_once

        def counted(driver):
            polls.append(driver.network.clock.now)
            return poll_once(driver)

        monkeypatch.setattr(MaintenanceDriver, "poll_once", counted)
        interval = churn_timeline.POLL_INTERVAL_MS
        result = churn_timeline.run_policy(MaintenancePolicy.PERIODIC, scale=MICRO)
        last_event = result["timeline"][-1]["time"]
        assert last_event > 3 * interval
        assert len(polls) >= last_event // interval - 1


class TestFailureResilience:
    @pytest.fixture(scope="class")
    def rows(self):
        return failure_resilience.run(
            scale=MICRO, crash_fractions=(0.0, 0.3), probes=48
        )

    def test_success_rate_stays_high(self, rows):
        for row in rows:
            assert row["success_rate"] >= 0.9

    def test_crashes_create_stale_records_and_repairs(self, rows):
        baseline, crashed = rows
        assert baseline["stale_records"] == 0
        assert crashed["stale_records"] > 0
        assert crashed["table_repairs"] >= baseline["table_repairs"]

    def test_stretch_finite_after_crashes(self, rows):
        assert rows[-1]["mean_stretch"] is not None
