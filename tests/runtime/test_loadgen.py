"""Open-loop load driver: schedules, percentiles, reports."""

import asyncio

import numpy as np
import pytest

from repro.core.config import NetworkParams, OverlayParams
from repro.runtime import Cluster, ClusterConfig, latency_percentiles, run_load
from repro.runtime.loadgen import LoadReport


def run(coroutine):
    return asyncio.run(coroutine)


def make_config(nodes=16, **overrides):
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=3),
        overlay=OverlayParams(num_nodes=nodes, seed=5),
        **overrides,
    )


class TestPercentiles:
    def test_ordering_and_values(self):
        sample = list(range(1, 101))  # 1..100 ms
        pct = latency_percentiles(sample)
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        assert pct["p50"] == pytest.approx(50.5)

    def test_empty_sample_is_nan(self):
        pct = latency_percentiles([])
        assert all(np.isnan(v) for v in pct.values())


class TestLoadReport:
    def test_summary_wall_keys(self):
        """Wall-derived numbers live only under wall-prefixed keys."""
        report = LoadReport(
            ops=10,
            errors=1,
            latencies_ms=[1.0] * 10,
            offered_rate=100.0,
            wall_duration_s=0.5,
        )
        summary = report.summary()
        assert summary["ops"] == 10
        assert summary["errors"] == 1
        assert report.succeeded == 9
        assert summary["wall_throughput_ops"] == pytest.approx(18.0)
        for key, value in summary.items():
            if isinstance(value, float) and key not in ("offered_rate",):
                assert key.startswith("wall"), key


class TestRunLoad:
    def test_all_lookups_complete_without_errors(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                return await run_load(cluster, rate=4000, count=120, seed=11)

        report = run(scenario())
        assert report.ops == 120
        assert report.errors == 0
        assert len(report.latencies_ms) == 120
        pct = report.percentiles()
        assert 0 < pct["p50"] <= pct["p99"]
        assert report.achieved_rate > 0

    def test_route_op_mix(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                return await run_load(
                    cluster, rate=4000, count=40, seed=2, op="route"
                )

        report = run(scenario())
        assert report.errors == 0

    def test_unknown_op_rejected(self):
        async def scenario():
            async with Cluster(make_config(nodes=4)) as cluster:
                with pytest.raises(ValueError, match="unknown op"):
                    await run_load(cluster, rate=100, count=4, op="teleport")

        run(scenario())

    def test_open_loop_respects_arrival_schedule(self):
        """Total duration is at least the last scheduled arrival offset."""

        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                rng = np.random.default_rng(9)
                from repro.workloads import poisson_arrivals

                expected_last = poisson_arrivals(200.0, 30, rng)[-1]
                report = await run_load(cluster, rate=200.0, count=30, seed=9)
                return report, float(expected_last)

        report, expected_last = run(scenario())
        # the driver fires at scheduled offsets, so the run cannot end
        # before the final arrival (minus scheduler slop)
        assert report.wall_duration_s >= expected_last * 0.8

    def test_telemetry_counters_recorded(self):
        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                await run_load(cluster, rate=4000, count=25, seed=1)
                counters = dict(cluster.network.telemetry.events)
                return counters

        counters = run(scenario())
        assert counters.get("loadgen_ops") == 25
        assert counters.get("loadgen_errors", 0) == 0


class TestClosedLoop:
    def test_worker_pool_completes_every_request(self):
        async def scenario():
            async with Cluster(make_config()) as cluster:
                return await run_load(
                    cluster, rate=0.0, count=200, seed=4, concurrency=8
                )

        report = run(scenario())
        assert report.mode == "closed"
        assert report.concurrency == 8
        assert report.offered_rate == 0.0
        assert report.ops == 200
        assert report.errors == 0
        assert len(report.latencies_ms) == 200

    def test_closed_loop_outruns_the_open_loop_schedule(self):
        """Capacity mode must beat a slow arrival schedule's ceiling."""

        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                open_report = await run_load(
                    cluster, rate=500.0, count=100, seed=6
                )
                closed_report = await run_load(
                    cluster, rate=500.0, count=100, seed=6, concurrency=16
                )
                return open_report, closed_report

        open_report, closed_report = run(scenario())
        # the open loop is pinned near its offered rate; the closed
        # loop is limited only by service capacity
        assert open_report.achieved_rate < 1000.0
        assert closed_report.achieved_rate > open_report.achieved_rate

    def test_concurrency_larger_than_count_is_safe(self):
        async def scenario():
            async with Cluster(make_config(nodes=8)) as cluster:
                return await run_load(
                    cluster, rate=0.0, count=5, seed=1, concurrency=64
                )

        report = run(scenario())
        assert report.ops == 5
        assert report.errors == 0
        assert len(report.latencies_ms) == 5


class TestMixedOutcomePercentiles:
    def test_success_percentiles_exclude_error_latencies(self):
        """A timeout cliff must not smear into the success percentiles.

        Regression: errored requests spend their full timeout on the
        clock; folding those latencies into p50/p95/p99 made a fast
        service with a few timeouts look uniformly slow.
        """
        report = LoadReport(
            ops=103,
            errors=3,
            latencies_ms=[1.0] * 100,
            error_latencies_ms=[30_000.0] * 3,
        )
        pct = report.percentiles()
        assert pct["p50"] == pytest.approx(1.0)
        assert pct["p99"] == pytest.approx(1.0)
        err = report.error_percentiles()
        assert err["p50"] == pytest.approx(30_000.0)
        summary = report.summary()
        assert summary["wall_p99_ms"] == pytest.approx(1.0)
        assert summary["wall_error_p50_ms"] == pytest.approx(30_000.0)
        assert summary["wall_error_p99_ms"] == pytest.approx(30_000.0)

    def test_error_summary_nan_when_no_errors(self):
        report = LoadReport(ops=2, errors=0, latencies_ms=[1.0, 2.0])
        assert np.isnan(report.error_percentiles()["p50"])
        assert np.isnan(report.summary()["wall_error_p50_ms"])

    def test_errored_requests_record_error_latency(self):
        """Driven errors land in the error sample, not the success one."""

        async def scenario():
            config = make_config(nodes=8, request_timeout=0.2)
            async with Cluster(config) as cluster:
                # unbinding one member loses every reply addressed to
                # it, so lookups sourced there time out (quickly)
                victim = sorted(cluster.node_ids)[0]
                await cluster.transport.unbind(victim)
                report = await run_load(
                    cluster, rate=0.0, count=60, seed=2, concurrency=4
                )
                return report

        report = run(scenario())
        assert report.errors > 0
        assert len(report.error_latencies_ms) == report.errors
        assert len(report.latencies_ms) == report.ops - report.errors
