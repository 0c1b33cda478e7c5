"""Maintenance policies: reactive, periodic, proactive."""

import pytest

from repro.core.reliability import NO_RETRY
from repro.netsim import FaultPlan
from repro.softstate import MaintenanceDriver, MaintenancePolicy


class TestProactive:
    def test_graceful_departure_withdraws(self, overlay):
        node_id = overlay.node_ids[0]
        overlay.remove_node(node_id, graceful=True)
        for bucket in overlay.store.maps.values():
            assert node_id not in bucket

    def test_crash_leaves_records_stale(self, overlay):
        node_id = overlay.node_ids[0]
        overlay.remove_node(node_id, graceful=False)
        assert overlay.maintenance.stale_entries() > 0


class TestReactive:
    @pytest.fixture
    def reactive_overlay(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.REACTIVE
        return overlay

    def test_crash_then_failed_use_purges(self, reactive_overlay):
        overlay = reactive_overlay
        node_id = overlay.node_ids[0]
        overlay.remove_node(node_id, graceful=False)
        assert overlay.maintenance.stale_entries() > 0
        removed = overlay.maintenance.on_failed_use(node_id)
        assert removed > 0
        for bucket in overlay.store.maps.values():
            assert node_id not in bucket

    def test_failed_use_ignored_under_other_policies(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.PROACTIVE
        node_id = overlay.node_ids[1]
        overlay.remove_node(node_id, graceful=False)
        assert overlay.maintenance.on_failed_use(node_id) == 0

    def test_selection_triggers_reactive_purge(self, reactive_overlay):
        """A dead record returned by a lookup is purged by the policy."""
        overlay = reactive_overlay
        victim = overlay.node_ids[5]
        overlay.remove_node(victim, graceful=False)
        # re-selecting tables will eventually touch the dead record
        for node_id in list(overlay.node_ids):
            overlay.ecan.build_table(node_id)
        assert all(
            victim not in bucket for bucket in overlay.store.maps.values()
        )


class TestPeriodic:
    def test_poll_purges_dead_and_charges_pings(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        victim = overlay.node_ids[2]
        overlay.remove_node(victim, graceful=False)
        before = overlay.network.stats.snapshot()
        removed = overlay.maintenance.poll_once()
        assert removed > 0
        assert overlay.network.stats.delta(before)["maintenance_ping"] > 0
        assert overlay.maintenance.stale_entries() == 0

    def test_timer_driven_sweep(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        overlay.maintenance.poll_interval = 10.0
        overlay.maintenance.start()
        victim = overlay.node_ids[3]
        overlay.remove_node(victim, graceful=False)
        assert overlay.maintenance.stale_entries() > 0
        overlay.network.clock.run_until(25.0)
        assert overlay.maintenance.stale_entries() == 0
        overlay.maintenance.stop()

    def test_start_is_idempotent(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        overlay.maintenance.start()
        timer = overlay.maintenance._timer
        overlay.maintenance.start()
        assert overlay.maintenance._timer is timer
        overlay.maintenance.stop()

    def test_start_noop_for_other_policies(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.PROACTIVE
        overlay.maintenance.start()
        assert overlay.maintenance._timer is None

    def test_liveness_decided_by_probes_not_oracle(self, overlay):
        """The sweep pings every record through the charged probe path."""
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        before = overlay.network.stats.snapshot()
        overlay.maintenance.poll_once()
        pings = overlay.network.stats.delta(before)["maintenance_ping"]
        records = sum(len(b) for b in overlay.store.maps.values())
        assert pings >= records  # at least one ping per record

    def test_no_false_purges_under_loss_with_confirmation(self, overlay):
        """N-confirmation probing never purges a live member."""
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        entries = overlay.store.total_entries()
        overlay.arm_faults(FaultPlan(probe_loss_rate=0.15), seed=9)
        try:
            overlay.maintenance.poll_once()
        finally:
            overlay.disarm_faults()
        assert overlay.maintenance.false_purges == 0
        assert overlay.store.total_entries() == entries

    def test_unconfirmed_baseline_false_purges_under_loss(self, overlay):
        """The fire-and-forget baseline mistakes lost pings for deaths."""
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        overlay.maintenance.retry_policy = NO_RETRY
        overlay.maintenance.confirmations = 1
        overlay.arm_faults(FaultPlan(probe_loss_rate=0.7), seed=9)
        try:
            overlay.maintenance.poll_once()
        finally:
            overlay.disarm_faults()
        assert overlay.maintenance.false_purges > 0

    def test_crash_stop_purged_through_probe_path(self, overlay):
        """With faults armed, a crashed host times out and is purged --
        after confirmation rounds, so no live node rides along."""
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        overlay.arm_faults(FaultPlan(), seed=0)
        try:
            victim = overlay.node_ids[2]
            overlay.remove_node(victim, graceful=False)
            assert overlay.maintenance.stale_entries() > 0
            overlay.maintenance.poll_once()
            assert overlay.maintenance.stale_entries() == 0
            assert overlay.maintenance.false_purges == 0
        finally:
            overlay.disarm_faults()

    def test_confirmation_backoff_advances_sim_clock(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        victim = overlay.node_ids[1]
        overlay.remove_node(victim, graceful=False)
        start = overlay.network.clock.now
        overlay.maintenance.poll_once()
        # confirming the death slept through retry backoffs in sim time
        assert overlay.network.clock.now > start

    def test_poll_also_expires_leases(self, overlay):
        overlay.maintenance.policy = MaintenancePolicy.PERIODIC
        overlay.store.record_ttl = 5.0
        node_id = overlay.node_ids[4]
        overlay.store.publish(node_id)
        overlay.network.clock.run_until(50.0)
        overlay.maintenance.poll_once()
        assert all(
            node_id not in bucket for bucket in overlay.store.maps.values()
        )
