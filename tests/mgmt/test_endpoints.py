"""Management HTTP API over live clusters: golden JSON, health codes."""

import asyncio
import json

from repro.core.config import NetworkParams, OverlayParams
from repro.mgmt import (
    Controller,
    counter_samples,
    http_get,
    parse_exposition,
    topology_snapshot,
)
from repro.runtime import Cluster, ClusterConfig, ShardedCluster
from tests.runtime.test_overload import TRIPPING, trip_a_breaker
from tests.runtime.test_overload import make_config as overload_config


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(nodes=24, shards=1, **overrides):
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        transport="loopback",
        shards=shards,
        **overrides,
    )


async def get_json(controller, path):
    status, headers, body = await http_get("127.0.0.1", controller.port, path)
    assert headers["content-type"].startswith("application/json")
    return status, json.loads(body)


class TestTopologyGolden:
    def test_topology_matches_snapshot_and_is_deterministic(self):
        """Golden-JSON: the served document equals the snapshot builder's
        output for the seeded 64-node cluster, byte-for-byte, and two
        boots of the same config serve identical bytes."""

        async def serve_once():
            async with Cluster(make_config(nodes=64)) as cluster:
                async with Controller(cluster) as controller:
                    status, _, body = await http_get(
                        "127.0.0.1", controller.port, "/topology"
                    )
                    golden = json.dumps(
                        topology_snapshot(cluster),
                        sort_keys=True,
                        separators=(",", ":"),
                    ).encode("utf-8")
                    return status, body, golden

        status, body, golden = run(serve_once())
        assert status == 200
        assert body == golden
        status2, body2, _ = run(serve_once())
        assert status2 == 200
        assert body2 == body  # reboot of the same seed: same bytes

    def test_topology_document_shape(self):
        async def scenario():
            async with Cluster(make_config(nodes=16)) as cluster:
                async with Controller(cluster) as controller:
                    return (await get_json(controller, "/topology"))[1]

        topo = run(scenario())
        assert topo["schema_version"] == 2
        assert topo["dims"] == 2
        assert len(topo["members"]) == 16
        assert [m["id"] for m in topo["members"]] == sorted(
            m["id"] for m in topo["members"]
        )
        member = topo["members"][0]
        assert set(member) == {
            "id", "host", "domain", "shard", "zone", "neighbors",
            "load", "capacity",
        }
        zone = member["zone"]
        assert set(zone) == {"lo", "hi", "depth"}
        assert len(zone["lo"]) == 2 and len(zone["hi"]) == 2
        assert topo["expressways"], "expressway tables must be exported"
        link = topo["expressways"][0]
        assert set(link) == {"src", "level", "cell", "dst"}
        assert topo["shards"] == {"count": 1, "members_per_shard": [16]}
        assert abs(topo["volume"] - 1.0) < 1e-9


class TestStatsAndMetrics:
    def test_stats_sections_and_metrics_parse(self):
        async def scenario():
            async with Cluster(make_config(nodes=16)) as cluster:
                await cluster.lookup(min(cluster.actors), (0.3, 0.7))
                async with Controller(cluster) as controller:
                    status, stats = await get_json(controller, "/stats")
                    mstatus, headers, body = await http_get(
                        "127.0.0.1", controller.port, "/metrics"
                    )
                    return status, stats, mstatus, headers, body

        status, stats, mstatus, headers, body = run(scenario())
        assert status == 200 and mstatus == 200
        assert set(stats) == {
            "schema_version", "shards", "transport",
            "events", "gauges", "phases",
            "transport_counters", "overload", "retries",
        }
        assert stats["schema_version"] == 2
        assert stats["shards"] == 1
        assert stats["transport_counters"]["delivered"] > 0
        for section in ("events", "gauges"):
            keys = list(stats[section])
            assert keys == sorted(keys)
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        families = parse_exposition(body.decode("utf-8"))
        assert "repro_events_total" in families
        assert "repro_counters_total" not in families
        assert "repro_health_status" in families
        assert families["repro_members"]["samples"] == [({}, 16.0)]

    def test_hops_are_exported_split_by_forwarding_kind(self):
        """Expressway share is readable from /stats and /metrics: every
        forwarded hop is one event under its kind, and nothing else."""

        async def scenario():
            async with Cluster(make_config(nodes=16)) as cluster:
                hops = 0
                for src in sorted(cluster.actors):
                    for point in ((0.1, 0.9), (0.8, 0.2)):
                        hops += (await cluster.lookup(src, point))["hops"]
                async with Controller(cluster) as controller:
                    _, stats = await get_json(controller, "/stats")
                    _, _, body = await http_get(
                        "127.0.0.1", controller.port, "/metrics"
                    )
                    return hops, stats["events"], body

        hops, events, body = run(scenario())
        split = {
            kind: events[f"runtime_{kind}_hop"] for kind in ("can", "expressway")
        }
        assert min(split.values()) > 0 and sum(split.values()) == hops
        assert "runtime_hop" not in events
        exported = {
            labels["event"]: value
            for labels, value in parse_exposition(body.decode("utf-8"))[
                "repro_events_total"
            ]["samples"]
        }
        for kind, count in split.items():
            assert exported[f"runtime_{kind}_hop"] == count


    def test_no_counter_typed_sample_decreases_through_a_crash(self):
        """An origin earns BUSY retries and a tripped breaker, then its
        machine crashes: every sample of every ``# TYPE ... counter``
        family reads at least what it read before."""

        async def scrape(controller):
            _, _, body = await http_get("127.0.0.1", controller.port, "/metrics")
            return counter_samples(parse_exposition(body.decode("utf-8")))

        async def scenario():
            async with Cluster(overload_config(**TRIPPING)) as cluster:
                origin_id, _, release = await trip_a_breaker(cluster)
                async with Controller(cluster) as controller:
                    before = await scrape(controller)
                    await cluster.crash(origin_id)
                    await release()
                    return before, await scrape(controller)

        before, after = run(scenario())
        assert before["repro_overload_total{kind=busy_retries}"] == 4
        assert before["repro_overload_total{kind=breaker_opens}"] == 1
        assert before["repro_events_total{event=runtime_busy_retry}"] == 4
        assert [key for key, value in before.items() if after.get(key, 0) < value] == []


class TestHealthTransitions:
    def test_crash_flips_healthy_to_degraded_immediately(self):
        async def scenario():
            async with Cluster(make_config(nodes=20)) as cluster:
                async with Controller(cluster) as controller:
                    before_status, before = await get_json(
                        controller, "/health"
                    )
                    boot_host = int(cluster.bootstrap.host)
                    victim = next(
                        n for n, actor in sorted(cluster.actors.items())
                        if int(actor.host) != boot_host
                    )
                    victims = (await cluster.crash(victim))["victims"]
                    # /health is never cached: the next scrape sees it
                    after_status, after = await get_json(controller, "/health")
                    return before_status, before, after_status, after, victims

        before_status, before, after_status, after, victims = run(scenario())
        assert before_status == 200 and before["status"] == "healthy"
        assert before["live"] == before["members"] == 20
        assert after_status == 503 and after["status"] == "degraded"
        assert after["live"] == 20 - len(victims)
        down = [n["id"] for n in after["nodes"] if n["verdict"] == "down"]
        assert sorted(down) == sorted(victims)
        assert after["crashed_unrepaired"] == sorted(victims)

    def test_partition_degrades_then_heal_restores(self):
        async def scenario():
            async with Cluster(make_config(nodes=24)) as cluster:
                async with Controller(cluster) as controller:
                    domains = cluster.network.topology.transit_domain
                    boot_domain = int(domains[int(cluster.bootstrap.host)])
                    severed = next(
                        d for d in sorted(set(int(x) for x in domains))
                        if d != boot_domain
                    )
                    cluster.partition([severed])
                    cut_status, cut = await get_json(controller, "/health")
                    cluster.heal_partition()
                    healed_status, healed = await get_json(
                        controller, "/health"
                    )
                    return cut_status, cut, healed_status, healed

        cut_status, cut, healed_status, healed = run(scenario())
        assert cut_status == 503 and cut["status"] == "degraded"
        assert cut["partitions_active"] >= 1
        assert healed_status == 200 and healed["status"] == "healthy"
        assert healed["partitions_active"] == 0

    def test_active_recovery_surfaces_suspicion(self):
        async def scenario():
            async with Cluster(
                make_config(nodes=16, heartbeat_period=0.05)
            ) as cluster:
                await cluster.enable_recovery()
                async with Controller(cluster) as controller:
                    # seed a suspicion by hand: deterministic, no waiting
                    suspect = max(cluster.actors)
                    cluster.recovery.suspected[suspect] = 1
                    status, health = await get_json(controller, "/health")
                    return status, health, suspect

        status, health, suspect = run(scenario())
        assert status == 503 and health["status"] == "degraded"
        assert health["recovery"]["state"] == "active"
        assert str(suspect) in health["recovery"]["suspected"]
        verdicts = {n["id"]: n["verdict"] for n in health["nodes"]}
        assert verdicts[suspect] == "suspected"


class TestShardedHealth:
    def test_sharded_cluster_serves_all_endpoints(self):
        async def scenario():
            async with ShardedCluster(
                make_config(nodes=12, shards=2)
            ) as cluster:
                async with Controller(cluster) as controller:
                    topo_status, topo = await get_json(controller, "/topology")
                    stats_status, stats = await get_json(controller, "/stats")
                    health_status, health = await get_json(
                        controller, "/health"
                    )
                    mstatus, _, body = await http_get(
                        "127.0.0.1", controller.port, "/metrics"
                    )
                    return (
                        topo_status, topo, stats_status, stats,
                        health_status, health, mstatus, body,
                    )

        (topo_status, topo, stats_status, stats,
         health_status, health, mstatus, body) = run(scenario())
        assert topo_status == stats_status == health_status == mstatus == 200
        assert topo["shards"]["count"] == 2
        assert sum(topo["shards"]["members_per_shard"]) == 12
        assert {m["shard"] for m in topo["members"]} == {0, 1}
        assert stats["shards"] == 2
        assert len(stats["per_shard"]) == 2
        # recovery is a typed refusal, not a 500
        assert health["status"] == "healthy"
        assert health["recovery"]["state"] == "unavailable (sharded)"
        parse_exposition(body.decode("utf-8"))


class TestServerBehavior:
    def test_unknown_path_404_lists_endpoints(self):
        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                async with Controller(cluster) as controller:
                    return await get_json(controller, "/nope")

        status, payload = run(scenario())
        assert status == 404
        assert payload["endpoints"] == [
            "/", "/health", "/metrics", "/stats", "/topology"
        ]

    def test_index_serves_selfcontained_zone_map(self):
        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                async with Controller(cluster) as controller:
                    return await http_get("127.0.0.1", controller.port, "/")

        status, headers, body = run(scenario())
        page = body.decode("utf-8")
        assert status == 200
        assert headers["content-type"].startswith("text/html")
        assert "<svg" in page and "fetch(\"/topology\")" in page
        # self-contained: no external scripts, styles or images
        assert "src=" not in page and "href=" not in page

    def test_non_get_method_rejected(self):
        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                async with Controller(cluster) as controller:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", controller.port
                    )
                    writer.write(
                        b"POST /stats HTTP/1.1\r\nHost: x\r\n"
                        b"Connection: close\r\n\r\n"
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    return raw

        raw = run(scenario())
        assert raw.startswith(b"HTTP/1.1 405 ")


    def test_a_torn_read_answers_500_and_the_next_scrape_succeeds(
        self, monkeypatch
    ):
        """Snapshots are computed per request: a read torn mid-churn
        fails that one request, not the daemon."""
        from repro.mgmt import controller as controller_module

        calls = []

        def torn_once(cluster):
            calls.append(cluster)
            if len(calls) == 1:
                raise RuntimeError("torn mid-churn read")
            return topology_snapshot(cluster)

        monkeypatch.setattr(controller_module, "topology_snapshot", torn_once)

        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                async with Controller(cluster) as controller:
                    torn = await get_json(controller, "/topology")
                    whole = await get_json(controller, "/topology")
                    return torn, whole

        (torn_status, torn), (status, topology) = run(scenario())
        assert torn_status == 500 and "torn mid-churn read" in torn["error"]
        assert status == 200 and topology["members"]
