"""Sharded multi-process runtime: parity, peering, crash surfacing."""

import asyncio
import os
import signal

import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.runtime import (
    ClusterConfig,
    Cluster,
    ShardCrashed,
    ShardedCluster,
    make_cluster,
    shard_assignment,
)
from repro.runtime.wire import ENVELOPE, Frame, FrameDecoder, MsgType, encode_frame


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(nodes=16, shards=2, transport="loopback", **overrides):
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        transport=transport,
        shards=shards,
        **overrides,
    )


class TestAssignment:
    def test_make_cluster_dispatches_on_shards(self):
        assert isinstance(make_cluster(make_config(shards=1)), Cluster)
        assert isinstance(make_cluster(make_config(shards=2)), ShardedCluster)

    def test_assignment_is_balanced_and_deterministic(self):
        async def scenario():
            async with ShardedCluster(make_config(nodes=18, shards=4)) as c:
                hosts = {n: c.routing.host_of(n) for n in c.assignment}
                again = shard_assignment(c.network, hosts, 4)
                return dict(c.assignment), again

        assignment, again = run(scenario())
        assert assignment == again
        sizes = sorted(
            sum(1 for s in assignment.values() if s == shard)
            for shard in range(4)
        )
        # 18 across 4: every shard within one member of the others
        assert sizes == [4, 4, 5, 5]

    def test_assignment_groups_by_transit_domain(self):
        async def scenario():
            async with ShardedCluster(make_config(nodes=16, shards=2)) as c:
                domain = c.network.topology.transit_domain
                return {
                    n: (int(domain[c.routing.host_of(n)]), shard)
                    for n, shard in c.assignment.items()
                }

        placed = run(scenario())
        # contiguous slices over the domain-sorted order: a member of a
        # lower domain never lands in a higher shard than a member of a
        # strictly higher domain
        for n1, (dom1, shard1) in placed.items():
            for n2, (dom2, shard2) in placed.items():
                if dom1 < dom2:
                    assert shard1 <= shard2, (n1, n2, placed)


class TestEnvelope:
    def test_decoder_reassembles_across_chunks(self):
        frames = [
            Frame(MsgType.HEARTBEAT, i, {"seq": i}) for i in range(5)
        ]
        blob = b"".join(
            ENVELOPE.pack(100 + i) + encode_frame(f, packed=True)
            for i, f in enumerate(frames)
        )
        decoder = FrameDecoder(envelope=True)
        out = []
        for i in range(0, len(blob), 7):  # feed in awkward 7-byte slivers
            out.extend(decoder.feed(blob[i:i + 7]))
        assert [dst for dst, _ in out] == [100 + i for i in range(5)]
        assert [f.payload["seq"] for _, f in out] == list(range(5))
        assert [f.request_id for _, f in out] == list(range(5))


class TestParity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_parity_loopback(self, shards):
        async def scenario():
            async with ShardedCluster(
                make_config(nodes=16, shards=shards)
            ) as cluster:
                return await cluster.verify_against_sim(
                    lookups=48, routes=12
                )

        verdict = run(scenario())
        assert verdict["ok"], verdict
        assert verdict["checked"] == 60

    def test_sharded_parity_tcp_inner_transport(self):
        async def scenario():
            async with ShardedCluster(
                make_config(nodes=12, shards=2, transport="tcp")
            ) as cluster:
                return await cluster.verify_against_sim(
                    lookups=32, routes=8
                )

        verdict = run(scenario())
        assert verdict["ok"], verdict

    def test_sharded_parity_bulk_boot(self):
        """Replicas and the reference sim boot the same way."""

        async def scenario():
            async with ShardedCluster(
                make_config(nodes=16, shards=2, bulk_boot=True)
            ) as cluster:
                return await cluster.verify_against_sim(
                    lookups=32, routes=8
                )

        verdict = run(scenario())
        assert verdict["ok"], verdict


class TestCrossShard:
    def test_route_crosses_shards_over_peering(self):
        async def scenario():
            async with ShardedCluster(make_config(nodes=16)) as cluster:
                by_shard = {}
                for node, shard in cluster.assignment.items():
                    by_shard.setdefault(shard, []).append(node)
                src = by_shard[0][0]
                dst = by_shard[1][0]
                result = await cluster.route(src, dst)
                counters = await cluster.counters()
                return src, dst, result, counters["transport"]

        src, dst, result, transport = run(scenario())
        assert result["owner"] == dst
        assert result["path"][0] == src
        assert result["path"][-1] == dst
        # the hops (or at least the final delivery + ACK) really rode
        # the peering sockets
        assert transport["peer_sent"] > 0
        assert transport["peer_delivered"] == transport["peer_sent"]
        assert transport["peer_misrouted"] == 0

    def test_distributed_load_sums_cleanly(self):
        async def scenario():
            async with ShardedCluster(make_config(nodes=16)) as cluster:
                report = await cluster.run_load(
                    rate=0.0, count=120, seed=11, concurrency=8
                )
                counters = await cluster.counters()
                return report, counters

        report, counters = run(scenario())
        assert report.ops == 120
        assert report.errors == 0
        assert len(report.latencies_ms) == 120
        assert report.mode == "closed"
        assert report.loop == "asyncio"
        # every lookup was issued by exactly one worker, and the
        # aggregated telemetry sees all of them
        assert counters["events"]["loadgen_ops"] == 120
        assert counters["events"]["runtime_lookup"] == 120

    def test_counter_aggregation_sums_per_shard(self):
        async def scenario():
            async with ShardedCluster(make_config(nodes=16)) as cluster:
                for node in list(cluster.assignment)[:6]:
                    await cluster.lookup(node, (0.25, 0.75))
                return await cluster.counters()

        counters = run(scenario())
        per_shard = counters["per_shard"]
        assert len(per_shard) == 2
        total = sum(
            shard["events"].get("runtime_lookup", 0) for shard in per_shard
        )
        assert counters["events"]["runtime_lookup"] == total == 6
        overload = counters["overload"]
        assert overload["shed"] == 0 and overload["busy_replies"] == 0


class TestChurn:
    def test_crash_applies_on_every_replica(self):
        async def scenario():
            async with ShardedCluster(make_config(nodes=16)) as cluster:
                members = dict(cluster.assignment)
                victim = next(n for n, s in members.items() if s == 1)
                out = await cluster.crash(victim)
                survivor = next(
                    n for n in cluster.assignment if cluster.assignment[n] == 0
                )
                # a key in the survivor's own zone terminates locally,
                # so it must keep resolving however the corpse's zone
                # now routes (repair needs the failure detector)
                center = cluster.routing.zone_center(survivor)
                result = await cluster.lookup(survivor, center)
                return victim, out, result, dict(cluster.assignment)

        victim, out, result, assignment = run(scenario())
        assert victim in out["victims"]
        assert victim not in assignment
        assert "owner" in result  # survivors keep serving

    def test_leave_shrinks_membership_everywhere(self):
        async def scenario():
            async with ShardedCluster(make_config(nodes=16)) as cluster:
                leaver = next(
                    n for n, s in cluster.assignment.items()
                    if s == 1 and n != 0
                )
                await cluster.leave(leaver)
                survivor = next(
                    n for n in cluster.assignment if cluster.assignment[n] == 0
                )
                result = await cluster.lookup(survivor, (0.3, 0.6))
                return leaver, len(cluster), result

        leaver, size, result = run(scenario())
        assert size == 15
        assert result["owner"] != leaver

    def test_recovery_is_explicitly_unsupported(self):
        from repro.runtime import NotSupportedError

        async def scenario():
            async with ShardedCluster(make_config(nodes=8)) as cluster:
                assert cluster.recovery is None
                # typed refusal, still a NotImplementedError for old callers
                with pytest.raises(NotSupportedError) as excinfo:
                    await cluster.enable_recovery()
                assert isinstance(excinfo.value, NotImplementedError)
                assert "peering plane" in str(excinfo.value)

        run(scenario())


class TestWorkerCrash:
    def test_dead_worker_raises_typed_error_not_hang(self):
        async def scenario():
            cluster = ShardedCluster(make_config(nodes=8))
            await cluster.start()
            try:
                os.kill(cluster.workers[1].process.pid, signal.SIGKILL)
                src = next(
                    n for n, s in cluster.assignment.items() if s == 1
                )
                with pytest.raises(ShardCrashed):
                    await asyncio.wait_for(
                        cluster.lookup(src, (0.1, 0.9)), timeout=30
                    )
            finally:
                await cluster.stop()  # must not hang on the corpse

        run(scenario())

    def test_stop_is_idempotent_and_restartable_guard(self):
        async def scenario():
            cluster = ShardedCluster(make_config(nodes=8))
            await cluster.start()
            await cluster.stop()
            await cluster.stop()  # second stop is a no-op
            return cluster.workers

        assert run(scenario()) == []


class TestConfigValidation:
    def test_latency_shaping_rejected_across_shards(self):
        with pytest.raises(ValueError):
            ShardedCluster(make_config(latency_scale=0.001))

    def test_shards_capped_by_membership(self):
        with pytest.raises(ValueError):
            make_config(nodes=4, shards=8)
