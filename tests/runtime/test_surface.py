"""One cluster surface: both harnesses answer the same calls alike.

Parametrised over ``shards in (1, 2)`` so the single-process
``Cluster`` and the multi-process ``ShardedCluster`` are held to one
contract: same return shapes, parity under either boot mode, one
``runtime_crash`` event per victim however many replicas applied it.
"""

import asyncio

import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.runtime import ClusterConfig, ClusterSurface, ShardError, make_cluster
from repro.softstate import Region


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(shards, nodes=16, **overrides):
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        shards=shards,
        **overrides,
    )


@pytest.mark.parametrize("shards", [1, 2])
class TestSurfaceContract:
    def test_crash_counters_and_retry_counters_have_one_shape(self, shards):
        async def scenario():
            async with make_cluster(make_config(shards)) as cluster:
                assert isinstance(cluster, ClusterSurface)
                victim = cluster.node_ids[-1]
                before = len(cluster)
                crash = await cluster.crash(victim)
                assert not cluster.is_up(victim)
                assert len(cluster) == before - len(crash["victims"])
                with pytest.raises(KeyError):
                    await cluster.crash(victim)  # already a corpse
                shard_ids = {cluster.shard_of(n) for n in cluster.node_ids}
                counters = await cluster.counters()
                return crash, counters, cluster.retry_counters(), shard_ids

        crash, counters, retries, shard_ids = run(scenario())
        assert set(crash) == {"victims", "salvageable", "lost"}
        assert crash["victims"] and crash["salvageable"] + crash["lost"] >= 0
        assert {"events", "transport", "overload"} <= set(counters)
        assert "metrics" not in counters
        assert {"dropped", "backpressure_drops"} <= set(counters["transport"])
        assert {"shed", "busy_retries", "breaker_opens"} <= set(counters["overload"])
        # every replica applies the crash; only the victims' own
        # processes report it
        assert counters["events"]["runtime_crash"] == len(crash["victims"])
        assert set(retries) == {"retries", "backoff_ms"}
        assert shard_ids == set(range(shards))

    @pytest.mark.parametrize("bulk_boot", [False, True])
    def test_parity_holds_in_either_boot_mode(self, shards, bulk_boot):
        async def scenario():
            config = make_config(shards, bulk_boot=bulk_boot)
            async with make_cluster(config) as cluster:
                return await cluster.verify_against_sim(lookups=48, routes=16)

        verdict = run(scenario())
        assert verdict["ok"], verdict

    def test_leave_is_applied_everywhere(self, shards):
        async def scenario():
            async with make_cluster(make_config(shards)) as cluster:
                leaver = cluster.node_ids[-1]
                await cluster.leave(leaver)
                assert leaver not in cluster.node_ids
                assert leaver not in cluster.overlay.ecan.can.nodes
                with pytest.raises(KeyError):
                    await cluster.leave(leaver)
                # a lookup from every survivor still lands on a survivor
                owners = [
                    (await cluster.lookup(n, (0.4, 0.6)))["owner"]
                    for n in cluster.node_ids
                ]
                # and a point outside the space is refused alike
                with pytest.raises(ValueError):
                    await cluster.lookup(cluster.node_ids[0], (1.0, 0.6))
                return owners, cluster.node_ids

        owners, survivors = run(scenario())
        assert set(owners) <= set(survivors) and len(set(owners)) == 1

    def test_lookup_map_refuses_a_region_the_overlay_has_not(self, shards):
        """Refused before a frame or a pipe message is sent, so no
        handler raises and the error names the region."""

        async def scenario():
            async with make_cluster(make_config(shards)) as cluster:
                querier = cluster.node_ids[0]
                for region in (Region(1, (2, 0)), Region(1, (-1, 0)), Region(1, (0,))):
                    with pytest.raises(ValueError, match=r"Region\(level=1, cell="):
                        await cluster.lookup_map(querier, region)
                served = await cluster.lookup_map(querier, Region(1, (0, 1)))
                return served, await cluster.counters()

        served, counters = run(scenario())
        assert served["records"]
        assert counters["events"].get("runtime_dispatch_error", 0) == 0


class TestControlDispatch:
    def test_unknown_and_unlisted_ops_are_rejected(self):
        async def scenario():
            async with make_cluster(make_config(2)) as cluster:
                worker = cluster.workers[0]
                for op in ("no_such_op", "stop_everything", "start", "_actor"):
                    with pytest.raises(ShardError, match="unknown control op"):
                        await cluster._call(worker, (op,))
                # the channel survives a rejected command
                return await cluster._call(worker, ("counters",))

        assert "overload" in run(scenario())
