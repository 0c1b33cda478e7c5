"""Fault injection: determinism, accounting, partitions, crashes."""

import numpy as np
import pytest

from repro.core import OverlayParams, TopologyAwareOverlay
from repro.netsim import (
    FaultInjector,
    FaultPlan,
    ManualLatencyModel,
    Network,
    Partition,
    ProbeTimeout,
)


def fault_sequence(network, plan, seed, pairs):
    """Replay ``pairs`` through a fresh injector; record each outcome."""
    injector = network.arm_faults(plan, seed=seed)
    outcomes = []
    try:
        for u, v in pairs:
            try:
                outcomes.append(round(float(network.rtt(u, v)), 9))
            except ProbeTimeout as exc:
                outcomes.append(exc.reason)
    finally:
        network.disarm_faults()
    return outcomes, injector


class TestPlanValidation:
    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            FaultPlan(probe_loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(message_loss_rate=-0.1)

    def test_partition_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            Partition(start=10.0, end=10.0, domains=(0,))

    def test_with_loss_sets_both_rates(self):
        plan = FaultPlan().with_loss(0.25)
        assert plan.probe_loss_rate == 0.25
        assert plan.message_loss_rate == 0.25


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self, tiny_network, rng):
        hosts = tiny_network.topology.stub_nodes()
        pairs = [
            tuple(int(h) for h in rng.choice(hosts, size=2, replace=False))
            for _ in range(200)
        ]
        plan = FaultPlan(probe_loss_rate=0.2)
        first, inj_a = fault_sequence(tiny_network, plan, seed=5, pairs=pairs)
        second, inj_b = fault_sequence(tiny_network, plan, seed=5, pairs=pairs)
        assert first == second
        assert inj_a.injected == inj_b.injected
        assert "lost" in first  # the rate is high enough to manifest

    def test_different_seed_diverges(self, tiny_network, rng):
        hosts = tiny_network.topology.stub_nodes()
        pairs = [
            tuple(int(h) for h in rng.choice(hosts, size=2, replace=False))
            for _ in range(200)
        ]
        plan = FaultPlan(probe_loss_rate=0.2)
        first, _ = fault_sequence(tiny_network, plan, seed=5, pairs=pairs)
        second, _ = fault_sequence(tiny_network, plan, seed=6, pairs=pairs)
        assert first != second


class TestProbeFaults:
    def test_unarmed_network_unchanged(self, tiny_network):
        hosts = tiny_network.topology.stub_nodes()
        rtt = tiny_network.rtt(int(hosts[0]), int(hosts[1]))
        assert type(rtt) is float
        assert tiny_network.faults is None

    def test_armed_probe_returns_probe_result(self, tiny_network):
        hosts = tiny_network.topology.stub_nodes()
        tiny_network.arm_faults(FaultPlan(), seed=1)
        rtt = tiny_network.rtt(int(hosts[0]), int(hosts[1]))
        assert type(rtt) is float
        tiny_network.disarm_faults()
        assert tiny_network.rtt(int(hosts[0]), int(hosts[1])) == rtt

    def test_loss_charged_in_stats_and_tally(self, tiny_network, rng):
        hosts = tiny_network.topology.stub_nodes()
        injector = tiny_network.arm_faults(FaultPlan(probe_loss_rate=1.0), seed=2)
        with pytest.raises(ProbeTimeout):
            tiny_network.rtt(int(hosts[0]), int(hosts[1]))
        assert tiny_network.stats.get("fault_probe_lost") == 1
        assert injector.injected["fault_probe_lost"] == 1
        assert injector.injected_total() == 1
        tiny_network.disarm_faults()

    def test_rtt_many_marks_lost_probes_nan(self, tiny_network):
        hosts = [int(h) for h in tiny_network.topology.stub_nodes()[:8]]
        tiny_network.arm_faults(FaultPlan(probe_loss_rate=0.5), seed=8)
        vector = tiny_network.rtt_many(hosts[0], hosts[1:])
        assert np.isnan(vector).any()
        assert (~np.isnan(vector)).any()
        tiny_network.disarm_faults()


class TestPartitions:
    def test_partition_severs_only_during_window(self, tiny_network):
        domains = tiny_network.topology.transit_domain
        stubs = tiny_network.topology.stub_nodes()
        inside = next(int(h) for h in stubs if domains[h] == 0)
        outside = next(int(h) for h in stubs if domains[h] != 0)
        plan = FaultPlan(
            partitions=(Partition(start=100.0, end=200.0, domains=(0,)),)
        )
        tiny_network.arm_faults(plan, seed=0)
        assert float(tiny_network.rtt(inside, outside)) > 0  # before the window
        tiny_network.clock.advance(150.0)
        with pytest.raises(ProbeTimeout) as exc_info:
            tiny_network.rtt(inside, outside)
        assert exc_info.value.reason == "fault_partition_drop"
        tiny_network.clock.advance(100.0)  # window over
        assert float(tiny_network.rtt(inside, outside)) > 0
        tiny_network.disarm_faults()

    def test_same_side_traffic_unaffected(self, tiny_network):
        domains = tiny_network.topology.transit_domain
        stubs = tiny_network.topology.stub_nodes()
        both = [int(h) for h in stubs if domains[h] == 0][:2]
        plan = FaultPlan(partitions=(Partition(start=0.0, end=1e9, domains=(0,)),))
        tiny_network.arm_faults(plan, seed=0)
        assert float(tiny_network.rtt(both[0], both[1])) >= 0
        tiny_network.disarm_faults()


class TestCrashStop:
    def test_crashed_host_answers_nothing_until_revived(self, tiny_network):
        hosts = tiny_network.topology.stub_nodes()
        u, v = int(hosts[0]), int(hosts[1])
        injector = tiny_network.arm_faults(FaultPlan(), seed=0)
        injector.crash_host(v)
        with pytest.raises(ProbeTimeout) as exc_info:
            tiny_network.rtt(u, v)
        assert exc_info.value.reason == "fault_crash_drop"
        injector.revive_host(v)
        assert float(tiny_network.rtt(u, v)) > 0
        tiny_network.disarm_faults()

    def test_message_delivery_respects_crash(self, tiny_network):
        hosts = tiny_network.topology.stub_nodes()
        u, v = int(hosts[0]), int(hosts[1])
        injector = tiny_network.arm_faults(FaultPlan(), seed=0)
        assert injector.deliver(u, v)
        injector.crash_host(u)
        assert not injector.deliver(u, v)
        assert injector.injected["fault_crash_drop"] == 1
        tiny_network.disarm_faults()


class TestPartitionObservability:
    def test_active_partitions_tracks_the_window(self, tiny_network):
        plan = FaultPlan(
            partitions=(
                Partition(start=100.0, end=200.0, domains=(0,)),
                Partition(start=150.0, end=400.0, domains=(1,)),
            )
        )
        injector = tiny_network.arm_faults(plan, seed=0)
        try:
            assert injector.active_partitions() == []
            assert len(injector.active_partitions(now=160.0)) == 2
            assert [p.domains for p in injector.active_partitions(now=300.0)] == [(1,)]
            assert injector.active_partitions(now=400.0) == []  # end exclusive
        finally:
            tiny_network.disarm_faults()

    def test_severed_pairs_follow_active_windows(self, tiny_network):
        domains = tiny_network.topology.transit_domain
        stubs = tiny_network.topology.stub_nodes()
        inside = next(int(h) for h in stubs if domains[h] == 0)
        outside = next(int(h) for h in stubs if domains[h] != 0)
        same_side = next(
            int(h) for h in stubs if domains[h] == 0 and int(h) != inside
        )
        plan = FaultPlan(partitions=(Partition(start=10.0, end=20.0, domains=(0,)),))
        injector = tiny_network.arm_faults(plan, seed=0)
        try:
            assert not injector.severed(inside, outside, now=5.0)
            assert injector.severed(inside, outside, now=15.0)
            assert not injector.severed(inside, same_side, now=15.0)
            assert not injector.severed(inside, outside, now=25.0)
        finally:
            tiny_network.disarm_faults()

    def test_watch_partitions_fires_once_at_window_end(self, tiny_network):
        clock = tiny_network.clock
        plan = FaultPlan(
            partitions=(
                Partition(start=clock.now + 10.0, end=clock.now + 50.0, domains=(0,)),
                Partition(start=clock.now - 20.0, end=clock.now - 5.0, domains=(1,)),
            )
        )
        injector = tiny_network.arm_faults(plan, seed=0)
        healed = []
        try:
            armed = injector.watch_partitions(healed.append)
            assert armed == 1  # the already-over window is not watched
            clock.run_until(clock.now + 30.0)
            assert healed == []  # still inside the window
            clock.run_until(clock.now + 100.0)
            assert [p.domains for p in healed] == [(0,)]
        finally:
            tiny_network.disarm_faults()


class TestEmptyPlanChangesNothing:
    """An armed plan that injects nothing sends a build down the other
    path at every layer -- ``measure_vector_reliably`` for landmark
    vectors, ``probe_many`` for neighbour confirmations, per-probe
    selection and ``_route_per_hop`` for routes -- and none of it may
    change what the build produces or what it is charged."""

    @staticmethod
    def built(topology, armed: bool) -> dict:
        network = Network(topology, ManualLatencyModel())
        overlay = TopologyAwareOverlay(
            network, OverlayParams(num_nodes=96, policy="softstate", seed=5)
        )
        if armed:
            overlay.arm_faults(FaultPlan(), seed=5)
        overlay.build()
        stretch = overlay.measure_stretch(128, rng=np.random.default_rng(5))
        assert (network.faults is not None) == armed
        nodes = overlay.ecan.can.nodes
        return {
            "zones": {n: [str(z) for z in nodes[n].zones] for n in sorted(nodes)},
            "tables": {n: overlay.ecan.table_of(n) for n in sorted(nodes)},
            "vectors": {
                n: record.landmark_vector
                for n, record in sorted(overlay.store.registry.items())
            },
            "stats": network.stats.snapshot(),
            "events": dict(network.telemetry.events),
            "stretch": [value.hex() for value in stretch.tolist()],
        }

    def test_armed_empty_plan_builds_what_the_perfect_network_builds(
        self, small_topology
    ):
        perfect = self.built(small_topology, armed=False)
        armed = self.built(small_topology, armed=True)
        assert len(perfect["stretch"]) == 128
        for key in perfect:
            assert armed[key] == perfect[key], key
