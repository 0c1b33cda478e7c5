"""Cluster harness: over-the-wire joins, RPCs, and sim parity."""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.core.reliability import RetryPolicy
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.overlay import EcanOverlay
from repro.runtime import Cluster, ClusterConfig, RoutingView, TransportError
from repro.softstate.maps import Region


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(nodes=20, transport="loopback", **overrides):
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        transport=transport,
        **overrides,
    )


class TestBoot:
    def test_boot_builds_full_membership(self):
        async def scenario():
            async with Cluster(make_config(nodes=12)) as cluster:
                return (
                    len(cluster),
                    sorted(cluster.node_ids),
                    len(cluster.overlay),
                )

        size, ids, overlay_size = run(scenario())
        assert size == 12
        assert overlay_size == 12
        assert ids == list(range(12))

    def test_joins_happen_over_the_wire(self):
        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                return dict(cluster.bootstrap.handled), cluster.transport.delivered

        handled, delivered = run(scenario())
        # every member after the seed joined via a JOIN frame
        assert handled.get("JOIN") == 7
        # JOIN frames in, ACKs out -- all through the transport
        assert delivered >= 14

    def test_membership_matches_synchronous_build(self):
        """Same (config, seed): identical zones, hosts and tables."""

        async def scenario():
            async with Cluster(make_config(nodes=16)) as cluster:
                sim = cluster.build_reference_sim()
                live_can = cluster.overlay.ecan.can
                sim_can = sim.ecan.can
                assert sorted(live_can.nodes) == sorted(sim_can.nodes)
                for node_id, live_node in live_can.nodes.items():
                    sim_node = sim_can.nodes[node_id]
                    assert live_node.host == sim_node.host
                    assert live_node.zone.lo == sim_node.zone.lo
                    assert live_node.zone.hi == sim_node.zone.hi
                assert (
                    cluster.overlay.ecan.table_of(0) == sim.ecan.table_of(0)
                )

        run(scenario())

    def test_config_rejects_empty_cluster(self):
        # OverlayParams validates first in make_config; ClusterConfig
        # guards directly-built configs -- either way it's a ValueError
        with pytest.raises(ValueError, match="node"):
            make_config(nodes=0)
        with pytest.raises(ValueError, match="at least one node"):
            ClusterConfig(
                nodes=0,
                network=NetworkParams(topo_scale=0.25, seed=3),
                overlay=OverlayParams(num_nodes=4, seed=5),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("request_timeout", 0.0),
            ("rto_min_s", -1.0),
            ("heartbeat_period", 0.0),
            ("probe_timeout", -1.0),
            ("breaker_reset_s", -1.0),
            ("latency_scale", -1.0),
            ("request_timeout", float("nan")),
        ],
    )
    def test_config_rejects_a_timing_value_that_breaks_later(self, field, value):
        """A zero timeout once booted and died at the first lookup; a
        zero heartbeat period at ``enable_recovery``; a negative probe
        timeout, breaker window or latency scale was kept silently."""
        with pytest.raises(ValueError, match=field):
            make_config(nodes=4, **{field: value})


class TestRpcs:
    def test_lookup_owner_matches_local_resolution(self):
        async def scenario():
            async with Cluster(make_config(nodes=20)) as cluster:
                rng = np.random.default_rng(42)
                checks = []
                for _ in range(16):
                    point = tuple(float(x) for x in rng.random(2))
                    src = int(rng.choice(cluster.node_ids))
                    live = await cluster.lookup(src, point)
                    expected = cluster.overlay.ecan.can.owner_of_point(point)
                    checks.append((live["owner"], expected, live["path"][0], src))
                return checks

        for owner, expected, first_hop, src in run(scenario()):
            assert owner == expected
            assert first_hop == src

    def test_route_reaches_destination_member(self):
        async def scenario():
            async with Cluster(make_config(nodes=20)) as cluster:
                live = await cluster.route(3, 11)
                return live

        live = run(scenario())
        assert live["owner"] == 11
        assert live["path"][0] == 3
        assert live["path"][-1] == 11
        assert live["hops"] == len(live["path"]) - 1

    def test_publish_and_heartbeat(self):
        async def scenario():
            async with Cluster(make_config(nodes=10)) as cluster:
                published = await cluster.publish(4)
                pong = await cluster.ping(2, 7, seq=99)
                return published, pong

        published, pong = run(scenario())
        assert published["node_id"] == 4
        assert published["regions"] >= 1
        assert pong == {"seq": 99, "from": 7}

    def test_map_lookup_matches_store(self):
        async def scenario():
            async with Cluster(make_config(nodes=20)) as cluster:
                region = Region(1, (0, 1))
                live = await cluster.lookup_map(5, region)
                local = cluster.overlay.store.lookup(5, region, charge=False)
                return live, local

        live, local = run(scenario())
        assert live["served_by"] == local.served_by
        assert live["records"] == [record.node_id for record in local.records]

    def test_point_outside_the_space_is_refused(self):
        """``lookup`` checks the point before a frame is built; a
        foreign ROUTE frame carrying one is answered with an ERROR by
        its first hop, which forwards nothing."""
        from repro.runtime.node import RemoteError
        from repro.runtime.wire import MsgType

        def routes_handled(cluster):
            return sum(a.handled.get("ROUTE", 0) for a in cluster.actors.values())

        async def scenario():
            async with Cluster(make_config(nodes=16)) as cluster:
                asker, victim = sorted(cluster.node_ids)[:2]
                before = routes_handled(cluster)
                for point in ((1.0, 0.5), (0.5, 0.5, 0.5), (float("nan"), 0.5)):
                    with pytest.raises(ValueError):
                        await cluster.lookup(asker, point)
                refused_early = routes_handled(cluster) - before
                with pytest.raises(RemoteError, match="ValueError"):
                    await cluster._actor(asker).request(
                        victim,
                        MsgType.ROUTE,
                        {"point": [1.0, 0.5], "path": [asker], "op": "lookup"},
                        timeout=2.0,
                    )
                return refused_early, routes_handled(cluster) - before

        refused_early, handled = run(scenario())
        assert refused_early == 0
        assert handled == 1

    def test_unknown_member_raises(self):
        async def scenario():
            async with Cluster(make_config(nodes=6)) as cluster:
                with pytest.raises(KeyError):
                    await cluster.lookup(999, (0.5, 0.5))

        run(scenario())


class TestRoutingView:
    def test_next_hop_without_visited_forwards(self):
        """``visited`` defaults to nothing visited, so a hop that is not
        a delivery still gets a next node."""
        ecan = EcanOverlay(dims=2, rng=np.random.default_rng(4))
        for i in range(16):
            ecan.join(i, host=i)
        routing = RoutingView(SimpleNamespace(ecan=ecan, store=None))
        src, dst = 0, 15
        point = ecan.nodes[dst].zone.center()
        next_id, kind = routing.next_hop(src, point)
        assert kind in ("expressway", "can") and next_id in ecan.nodes
        assert (next_id, kind) == routing.next_hop(src, point, visited=[src])


class TestSimParity:
    def test_loopback_parity(self):
        async def scenario():
            async with Cluster(make_config(nodes=24)) as cluster:
                return await cluster.verify_against_sim(lookups=48, routes=24)

        verdict = run(scenario())
        assert verdict["ok"], verdict
        assert verdict["checked"] == 72

    def test_tcp_parity_at_16_nodes(self):
        async def scenario():
            async with Cluster(make_config(nodes=16, transport="tcp")) as cluster:
                return await cluster.verify_against_sim(lookups=32, routes=16)

        verdict = run(scenario())
        assert verdict["ok"], verdict

    def test_parity_workload_is_seeded(self):
        """Same seed, same verdict structure -- the check is replayable."""

        async def scenario(seed):
            async with Cluster(make_config(nodes=12)) as cluster:
                return await cluster.verify_against_sim(
                    lookups=16, routes=8, seed=seed
                )

        assert run(scenario(7)) == run(scenario(7))


class TestDispatchErrors:
    def test_srcless_poison_frame_is_counted_not_swallowed(self):
        """A bad frame with nobody to answer must still leave a trace.

        Without a ``src`` there is no requester to bounce an ERROR to,
        so the only evidence of the failure is the telemetry counter
        and the actor's diagnostics -- both must record it.
        """
        from repro.runtime.wire import Frame, MsgType

        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                victim = sorted(cluster.node_ids)[0]
                actor = cluster._actor(victim)
                # ROUTE without point/path/src: dispatch raises KeyError
                await cluster.transport.send(
                    victim, victim, Frame(MsgType.ROUTE, 77, {"bogus": True})
                )
                await asyncio.sleep(0)
                return (
                    cluster.network.telemetry.events.get(
                        "runtime_dispatch_error", 0
                    ),
                    list(actor.handled.get("dispatch_errors", [])),
                    actor.handled.get("ROUTE", 0),
                )

        errors, reprs, routed = run(scenario())
        assert errors == 1
        assert routed == 1
        assert len(reprs) == 1
        assert reprs[0].startswith("ROUTE: KeyError")

    def test_dispatch_error_reprs_are_capped(self):
        """Diagnostics keep the first reprs; the counter keeps counting."""
        from repro.runtime.node import NodeProcess
        from repro.runtime.wire import Frame, MsgType

        poison_count = NodeProcess.MAX_ERROR_REPRS + 4

        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                victim = sorted(cluster.node_ids)[0]
                actor = cluster._actor(victim)
                for i in range(poison_count):
                    await cluster.transport.send(
                        victim, victim, Frame(MsgType.ROUTE, 100 + i, {})
                    )
                await asyncio.sleep(0)
                return (
                    cluster.network.telemetry.events.get(
                        "runtime_dispatch_error", 0
                    ),
                    len(actor.handled.get("dispatch_errors", [])),
                )

        errors, kept = run(scenario())
        assert errors == poison_count
        assert kept == NodeProcess.MAX_ERROR_REPRS

    def test_poison_frame_with_src_gets_an_error_reply(self):
        """A requester-visible failure still answers over the wire."""
        from repro.runtime.node import RemoteError
        from repro.runtime.wire import MsgType

        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                ids = sorted(cluster.node_ids)
                asker, victim = ids[0], ids[1]
                with pytest.raises(RemoteError, match="KeyError"):
                    await cluster._actor(asker).request(
                        victim, MsgType.ROUTE, {"bogus": True}, timeout=2.0
                    )
                return cluster.network.telemetry.events.get(
                    "runtime_dispatch_error", 0
                )

        assert run(scenario()) == 1


class TestTransportFaults:
    def test_lossy_transport_times_out_not_hangs(self):
        """Dropped frames surface as fast failures, never hangs."""

        async def scenario():
            cluster = Cluster(make_config(nodes=8, request_timeout=0.2))
            # boot fault-free so joins succeed, then arm the network's
            # injector, the one the transport reads
            await cluster.start()
            try:
                cluster.transport.faults = cluster.network.arm_faults(
                    FaultPlan(message_loss_rate=1.0), seed=0
                )
                with pytest.raises(Exception) as failure:
                    await cluster.lookup(0, (0.9, 0.9))
                return failure.type.__name__
            finally:
                cluster.network.disarm_faults()
                await cluster.stop()

        assert run(scenario()) in ("TransportError", "RequestTimeout")

    def test_a_shared_retry_policy_charges_only_the_cluster_that_resent(self):
        """One ``RetryPolicy`` in two configs: the resend is booked on
        the network it happened on, not on the (frozen) schedule."""

        async def scenario():
            policy = RetryPolicy(max_attempts=2, base_delay=1.0)
            idle = Cluster(make_config(nodes=8, retry=policy))  # never started
            async with Cluster(make_config(nodes=8, retry=policy)) as cluster:
                injector = FaultInjector(
                    cluster.network, FaultPlan(message_loss_rate=1.0), seed=0
                )
                injector.armed = True
                cluster.transport.faults = injector
                with pytest.raises(TransportError):
                    await cluster.ping(0, 1)
                cluster.transport.faults = None
                return cluster.retry_counters(), idle.retry_counters()

        resent, idle = run(scenario())
        assert resent == {"retries": 1, "backoff_ms": 1.0}
        assert idle == {"retries": 0, "backoff_ms": 0.0}

    def test_partial_loss_still_serves_some_lookups(self):
        async def scenario():
            config = make_config(nodes=10, request_timeout=0.3)
            cluster = Cluster(config)
            await cluster.start()
            try:
                from repro.netsim.faults import FaultInjector

                injector = FaultInjector(
                    cluster.network, FaultPlan(message_loss_rate=0.3), seed=3
                )
                injector.armed = True
                cluster.transport.faults = injector
                rng = np.random.default_rng(1)
                succeeded = 0
                for _ in range(12):
                    try:
                        await cluster.lookup(
                            int(rng.choice(cluster.node_ids)),
                            tuple(float(x) for x in rng.random(2)),
                        )
                        succeeded += 1
                    except Exception:
                        pass
                return succeeded
            finally:
                cluster.transport.faults = None
                await cluster.stop()

        assert 0 < run(scenario()) <= 12
