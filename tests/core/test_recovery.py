"""Self-healing recovery: detection, takeover, replication, reconciliation."""

import numpy as np
import pytest

from repro.chord import ChordRing
from repro.core import (
    DetectorParams,
    FailureDetector,
    OverlayParams,
    RecoveryManager,
    TopologyAwareOverlay,
    check_invariants,
)
from repro.netsim.faults import FaultPlan, Partition
from repro.pastry import PastryRing


@pytest.fixture
def overlay(tiny_network):
    ov = TopologyAwareOverlay(
        tiny_network,
        OverlayParams(
            num_nodes=40,
            policy="softstate",
            landmarks=6,
            replication_factor=2,
            seed=2,
        ),
    )
    ov.build()
    return ov


@pytest.fixture
def faulty(overlay):
    """Same overlay with a (fault-free) injector armed, recovery on."""
    overlay.arm_faults(FaultPlan(), seed=3)
    overlay.enable_recovery()
    return overlay


class TestDetectorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(period=0.0)
        with pytest.raises(ValueError):
            DetectorParams(suspicion_periods=-1)


class TestFailureDetector:
    def test_quiet_overlay_kills_no_one(self, faulty):
        detector = faulty.detector
        for _ in range(5):
            detector.tick()
        assert detector.confirmed_dead == []
        assert detector.false_kills == 0
        assert detector.suspected == {}

    def test_probe_loss_alone_never_kills(self, overlay):
        overlay.arm_faults(FaultPlan(probe_loss_rate=0.3), seed=5)
        overlay.enable_recovery()
        detector = overlay.detector
        for _ in range(8):
            detector.tick()
        assert detector.confirmed_dead == []
        assert detector.false_kills == 0

    def test_crash_confirmed_within_bounded_rounds(self, faulty):
        victim = faulty.node_ids[7]
        faulty.crash_node(victim)
        detector = faulty.detector
        rounds = 0
        while victim not in detector.confirmed_dead:
            detector.tick()
            rounds += 1
            assert rounds <= detector.params.suspicion_periods + 2
        assert detector.false_kills == 0
        assert victim not in faulty.ecan.can.nodes  # takeover ran

    def test_answered_probe_refutes_suspicion(self, faulty):
        detector = faulty.detector
        live = faulty.node_ids[3]
        detector.suspected[live] = detector.params.suspicion_periods
        detector.tick()
        assert live not in detector.suspected
        assert detector.refutations >= 1

    def test_partition_shields_verdict_until_heal(self, faulty):
        clock = faulty.network.clock
        domains = faulty.network.topology.transit_domain
        victim = faulty.node_ids[5]
        domain = int(domains[faulty.ecan.can.nodes[victim].host])
        plan = FaultPlan(
            partitions=(Partition(clock.now, clock.now + 5000.0, (domain,)),)
        )
        faulty.network.faults.plan = plan
        faulty.crash_node(victim)
        detector = faulty.detector
        for _ in range(6):
            detector.tick()
        # silence is explainable by the active partition: verdict held
        assert victim not in detector.confirmed_dead
        assert detector.shielded_verdicts > 0
        clock.advance(6000.0)
        detector.tick()
        assert victim in detector.confirmed_dead
        assert detector.false_kills == 0

    def test_detector_rounds_follow_the_clock(self, faulty):
        detector = faulty.detector
        period = detector.params.period
        faulty.network.clock.run_until(faulty.network.clock.now + 3 * period)
        assert detector.rounds == 3
        detector.stop()
        faulty.network.clock.run_until(faulty.network.clock.now + 3 * period)
        assert detector.rounds == 3

    def test_fd_traffic_is_charged(self, faulty):
        stats = faulty.network.stats
        faulty.crash_node(faulty.node_ids[2])
        faulty.detector.tick()
        assert stats.get("fd_ping") > 0
        assert stats.get("fd_ping_req") > 0


class TestRecoveryManager:
    def test_confirmed_crash_repairs_the_can(self, faulty):
        victim = faulty.node_ids[11]
        faulty.crash_node(victim)
        for _ in range(4):
            faulty.detector.tick()
        can = faulty.ecan.can
        assert victim not in can.nodes
        assert can.total_volume() == pytest.approx(1.0)
        can.check_invariants()
        assert faulty.recovery.takeovers == 1
        assert faulty.network.stats.get("crash_takeover") > 0

    def test_eager_invalidation_cleans_expressways(self, faulty):
        victim = None
        for node_id, table in faulty.ecan._tables.items():
            for row in table.values():
                for entry in row.values():
                    if entry != node_id:
                        victim = entry
                        break
        assert victim is not None
        faulty.crash_node(victim)
        faulty.recovery.handle_death(victim)
        for table in faulty.ecan._tables.values():
            for row in table.values():
                assert victim not in row.values()

    def test_rehost_from_surviving_replica(self, faulty):
        store = faulty.store
        can = faulty.ecan.can
        target = None
        for region, bucket in store.maps.items():
            for node_id, stored in bucket.items():
                owners = [
                    can.owner_of_point(p)
                    for p in (stored.position, *stored.replicas)
                ]
                if len(set(owners)) > 1 and node_id not in owners:
                    target = (region, node_id, owners[0])
                    break
            if target:
                break
        assert target is not None
        region, node_id, primary_owner = target
        faulty.crash_node(primary_owner)
        faulty.recovery.handle_death(primary_owner)
        # the record survived its primary host's crash and every copy
        # now sits on a live member
        assert node_id in store.maps[region]
        crashed = faulty.network.faults.crashed_hosts
        for host_node in store.copy_hosts(region, node_id):
            assert host_node in can.nodes
            assert can.nodes[host_node].host not in crashed
        assert faulty.recovery.rehosted > 0
        assert faulty.network.stats.get("softstate_rehost") > 0

    def test_lost_records_republished_on_sweep(self, tiny_network):
        ov = TopologyAwareOverlay(
            tiny_network,
            OverlayParams(
                num_nodes=32, policy="softstate", landmarks=6, seed=2
            ),
        )
        ov.build()
        ov.arm_faults(FaultPlan(), seed=3)
        ov.enable_recovery()
        store, can = ov.store, ov.ecan.can
        victim = next(
            can.owner_of_point(stored.position)
            for bucket in store.maps.values()
            for node_id, stored in bucket.items()
            if can.owner_of_point(stored.position) != node_id
        )
        ov.crash_node(victim)
        ov.recovery.handle_death(victim)
        missing = [n for n in ov.node_ids if store.missing_regions(n)]
        assert missing  # replication_factor=1: some records died outright
        ov.maintenance.poll_once()
        assert ov.maintenance.republished >= len(missing)
        assert [n for n in ov.node_ids if store.missing_regions(n)] == []
        check_invariants(ov, ov.detector)

    def test_reconcile_unsuspects_live_nodes(self, faulty):
        detector = faulty.detector
        live = faulty.node_ids[9]
        detector.suspected[live] = detector.params.suspicion_periods + 5
        summary = faulty.recovery.reconcile()
        assert live not in detector.suspected
        assert summary["unsuspected"] == 1
        assert faulty.network.stats.get("recovery_reconcile") == 1

    def test_partition_heal_schedules_reconcile(self, overlay):
        clock = overlay.network.clock
        plan = FaultPlan(
            partitions=(Partition(clock.now + 50.0, clock.now + 150.0, (0,)),)
        )
        overlay.arm_faults(plan, seed=3)
        overlay.enable_recovery()
        assert overlay.recovery.reconciliations == 0
        clock.run_until(clock.now + 200.0)
        assert overlay.recovery.reconciliations == 1


class TestCrashNode:
    def test_requires_armed_faults(self, overlay):
        with pytest.raises(RuntimeError):
            overlay.crash_node(overlay.node_ids[0])

    def test_crash_leaves_corpse_in_place(self, faulty):
        victim = faulty.node_ids[4]
        host = faulty.ecan.can.nodes[victim].host
        faulty.crash_node(victim)
        assert victim in faulty.ecan.can.nodes  # no instant takeover
        assert host in faulty.network.faults.crashed_hosts
        # ...which is exactly the state check_invariants must reject
        with pytest.raises(AssertionError):
            check_invariants(faulty, faulty.detector)

    def test_unknown_node_rejected(self, faulty):
        with pytest.raises(KeyError):
            faulty.crash_node(987654)

    def test_enable_recovery_is_idempotent(self, faulty):
        manager = faulty.recovery
        assert faulty.enable_recovery() is manager


class TestReplication:
    def test_replicas_are_pure_and_inside_the_region(self, overlay):
        store = overlay.store
        record = store.registry[overlay.node_ids[0]]
        for region in list(store.maps)[:4]:
            first = store.replica_positions(record, region)
            assert first == store.replica_positions(record, region)
            assert len(first) == store.replication_factor - 1
            zone = region.zone()
            for position in first:
                assert zone.contains(position)
                assert position != store.position_of(record, region)

    def test_publish_stores_replicas_and_charges(self, overlay):
        store = overlay.store
        assert overlay.network.stats.get("softstate_replicate") > 0
        for bucket in store.maps.values():
            for stored in bucket.values():
                assert len(stored.replicas) == store.replication_factor - 1

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError):
            OverlayParams(replication_factor=0)

    def test_total_copy_loss_is_reported(self, faulty):
        store = faulty.store
        can = faulty.ecan.can
        # find a record whose copies all sit on one node (colocated)
        target = None
        for region, bucket in store.maps.items():
            for node_id, stored in bucket.items():
                owners = {
                    can.owner_of_point(p)
                    for p in (stored.position, *stored.replicas)
                }
                if len(owners) == 1 and node_id not in owners:
                    target = (region, node_id, owners.pop())
                    break
            if target:
                break
        if target is None:
            pytest.skip("no colocated record in this tessellation")
        region, node_id, owner = target
        faulty.crash_node(owner)
        assert any(
            r == region and n == node_id for r, n in store.lost_records
        )
        assert node_id not in store.maps.get(region, {})


class TestCheckInvariants:
    def test_healthy_overlay_passes(self, faulty):
        summary = check_invariants(faulty, faulty.detector)
        assert summary["nodes"] == 40
        assert summary["volume"] == pytest.approx(1.0)

    def test_stale_map_record_rejected(self, faulty):
        store = faulty.store
        region = next(iter(store.maps))
        bucket = store.maps[region]
        stored = next(iter(bucket.values()))
        bucket[987654] = stored
        with pytest.raises(AssertionError, match="dead node"):
            check_invariants(faulty)


class TestRingInvalidation:
    def test_chord_eager_invalidation(self):
        ring = ChordRing(bits=10, rng=np.random.default_rng(3))
        for i in range(24):
            ring.join(host=100 + i)
        for member in ring.members():
            ring.build_fingers(member)
        dead = next(
            entry
            for node in ring.nodes.values()
            for entry in node.fingers.values()
        )
        removed = ring.invalidate_member(dead)
        assert removed > 0
        for node in ring.nodes.values():
            assert dead not in node.fingers.values()

    def test_pastry_eager_invalidation(self):
        ring = PastryRing(rng=np.random.default_rng(3))
        for i in range(24):
            ring.join(host=100 + i)
        for member in list(ring.nodes):
            ring.build_table(member)
        dead = next(
            entry
            for node in ring.nodes.values()
            for entry in node.table.values()
        )
        removed = ring.invalidate_member(dead)
        assert removed > 0
        for node in ring.nodes.values():
            assert dead not in node.table.values()
