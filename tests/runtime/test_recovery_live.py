"""Wire-level SWIM detection + live repair (tentpole coverage).

Every tick here is driven manually (the background task is never
started) so the rounds are deterministic: crash -> silence -> suspect
-> confirm -> takeover, refutation of a wrongly seeded suspicion,
partition shielding with a heal + reconcile, a crashed member
restarting through the wire JOIN path, and the bulk-boot fast path
producing the same membership and zones as the incremental build.
"""

import asyncio
import math

import pytest

from repro.core.builder import TopologyAwareOverlay
from repro.core.config import NetworkParams, OverlayParams, make_network
from repro.core.recovery import DetectorParams, FailureDetector, check_invariants
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.recovery import RuntimeRecovery


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(nodes=24, **overrides):
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        heartbeat_period=0.05,
        probe_timeout=0.5,
        **overrides,
    )


def make_detector(cluster, suspicion_periods=1):
    """A hand-ticked detector: no background task, short suspicion."""
    return RuntimeRecovery(
        cluster,
        DetectorParams(period=50.0, suspicion_periods=suspicion_periods),
        seed=11,
    )


async def tick_until(recovery, predicate, rounds=12):
    for _ in range(rounds):
        await recovery.tick()
        if predicate():
            return
    raise AssertionError(f"predicate still false after {rounds} detector rounds")


def pick_victim(cluster):
    """A member off the bootstrap's machine (crashes are host-level)."""
    boot_host = int(cluster.bootstrap.host)
    return next(
        n
        for n, actor in sorted(cluster.actors.items())
        if int(actor.host) != boot_host
    )


class TestCrashDetection:
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_crash_confirm_takeover_invariants(self, transport):
        async def scenario():
            async with Cluster(make_config(transport=transport)) as cluster:
                recovery = make_detector(cluster)
                victims = (await cluster.crash(pick_victim(cluster)))["victims"]
                await tick_until(
                    recovery,
                    lambda: set(victims) <= set(recovery.confirmed_dead),
                )
                await recovery.reconcile()
                # counted where the simulator's pass is, so /stats shows it
                assert (await cluster.counters())["events"]["reconcile"] == 1
                assert recovery.false_kills == 0
                assert recovery.manager.takeovers >= len(victims)
                nodes = cluster.overlay.ecan.can.nodes
                assert not set(victims) & set(nodes)
                summary = check_invariants(cluster.overlay, recovery)
                # a live lookup still lands after the repair
                survivor = min(cluster.actors)
                result = await cluster.lookup(survivor, (0.3, 0.7))
                assert result["owner"] in cluster.actors
                return summary

        summary = run(scenario())
        assert summary["nodes"] > 0

    def test_answered_probe_refutes_suspicion(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                recovery = make_detector(cluster, suspicion_periods=3)
                innocent = pick_victim(cluster)
                recovery.suspected[innocent] = 2  # wrongly accused, still alive
                await tick_until(
                    recovery, lambda: innocent not in recovery.suspected, rounds=4
                )
                assert recovery.refutations >= 1
                assert recovery.false_kills == 0
                assert innocent not in recovery.confirmed_dead

        run(scenario())


class TestOnePlan:
    def test_sim_and_live_adapters_probe_the_same_pairs(self):
        """Same membership, same round number: same (prober, target)
        plan from both adapters, dead probers skipped alike."""

        async def scenario():
            async with Cluster(make_config(nodes=12)) as cluster:
                live = make_detector(cluster)
                sim = FailureDetector(cluster.overlay, live.params, seed=11)
                await cluster.crash(pick_victim(cluster))
                live_probes, sim_probes = [], []

                async def heartbeat(prober, target, relay=None):
                    live_probes.append((prober, target))
                    return True

                def ping(src, dst, indirect=False):
                    sim_probes.append((src, dst))
                    return True

                live._heartbeat, sim._ping = heartbeat, ping
                plans = []
                for _ in range(2 * len(cluster.overlay.ecan.can.nodes)):
                    await live.tick()
                    sim.tick()
                    assert live.rounds == sim.rounds
                    assert live_probes == sim_probes
                    plans.append(tuple(live_probes))
                    live_probes.clear()
                    sim_probes.clear()
                return plans, len(cluster.actors)

        plans, live_members = run(scenario())
        assert all(len(plan) == live_members for plan in plans)
        assert len(set(plans)) > 1  # the rotation actually rotates


class TestPartitionShielding:
    def test_partition_shields_then_heals(self):
        async def scenario():
            async with Cluster(make_config(nodes=32)) as cluster:
                recovery = make_detector(cluster)
                domains = cluster.network.topology.transit_domain
                boot_domain = int(domains[int(cluster.bootstrap.host)])
                severed = next(
                    d for d in sorted(set(int(x) for x in domains)) if d != boot_domain
                )
                before = len(cluster)
                cluster.partition([severed])
                # enough rounds for cross-cut silence to reach the
                # confirm threshold, where the shield must hold it
                await tick_until(
                    recovery, lambda: recovery.shielded_verdicts > 0
                )
                assert recovery.false_kills == 0
                assert not recovery.confirmed_dead
                assert len(cluster) == before  # nobody was killed

                assert cluster.heal_partition() >= 1
                report = await recovery.reconcile()
                assert not recovery.suspected
                assert report["unsuspected"] >= 0
                check_invariants(cluster.overlay, recovery)

        run(scenario())


class TestRestart:
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_crashed_member_rejoins_over_the_wire(self, transport):
        """Over TCP the rejoin binds a temporary address (its envelope
        id from the top of the u32 range), then rebinds to its node id."""

        async def scenario():
            async with Cluster(make_config(transport=transport)) as cluster:
                recovery = make_detector(cluster)
                victim = pick_victim(cluster)
                victims = (await cluster.crash(victim))["victims"]
                await tick_until(
                    recovery,
                    lambda: set(victims) <= set(recovery.confirmed_dead),
                )
                await recovery.reconcile()
                rejoined = await cluster.restart()
                assert rejoined in cluster.actors
                assert rejoined in cluster.overlay.ecan.can.nodes
                result = await cluster.lookup(rejoined, (0.5, 0.5))
                assert result["owner"] in cluster.actors
                check_invariants(cluster.overlay, recovery)

        run(scenario())

    @pytest.mark.parametrize("bulk_boot", [False, True], ids=["wire-join", "bulk-boot"])
    def test_runtime_join_counts_each_member_once(self, bulk_boot):
        """``/stats`` and ``/metrics`` export this event: one per
        admission, however the cluster booted, a restart included."""

        async def scenario():
            async with Cluster(make_config(nodes=8, bulk_boot=bulk_boot)) as cluster:
                await cluster.restart()
                events = cluster.network.telemetry.events
                return events["runtime_join"], len(cluster)

        joins, members = run(scenario())
        assert joins == members == 9


class TestBulkBoot:
    def test_bulk_boot_matches_incremental_membership_and_zones(self):
        async def scenario():
            config = make_config(bulk_boot=True)
            async with Cluster(config) as cluster:
                # the cluster's own reference sim is bulk-built too, so
                # the incremental side of the comparison is built here
                reference = TopologyAwareOverlay(
                    make_network(config.network), config.overlay
                )
                reference.build(config.nodes)
                live_nodes = cluster.overlay.ecan.can.nodes
                sim_nodes = reference.ecan.can.nodes
                assert set(live_nodes) == set(sim_nodes)
                for node_id, node in live_nodes.items():
                    other = sim_nodes[node_id]
                    assert node.host == other.host
                    assert tuple(node.zone.lo) == tuple(other.zone.lo)
                    assert tuple(node.zone.hi) == tuple(other.zone.hi)
                check_invariants(cluster.overlay)
                # and the booted cluster actually serves traffic
                result = await cluster.lookup(min(cluster.actors), (0.2, 0.8))
                assert result["owner"] in cluster.actors

        run(scenario())
