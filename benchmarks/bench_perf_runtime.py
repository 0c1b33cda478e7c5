"""Live-runtime benchmark: the nodes x concurrency x encoding x shards sweep.

Not a paper figure -- this sweeps the asyncio runtime
(``src/repro/runtime/``) for correctness under load.  Each cell boots a cluster and drives the load generator in one of its two
modes over one of the two payload encodings:

* **open loop** (``concurrency=0``): Poisson arrivals at a fixed
  offered rate -- achieved throughput is capped by the schedule, so
  these cells measure latency under a compliant load;
* **closed loop** (``concurrency=N``): a worker pool holds N requests
  in flight -- these cells measure capacity, which is where the
  packed struct encoding and the run-to-completion actor pay off.

The ``shards`` axis boots the same membership across N worker
processes (``ShardedCluster``): ``shards=1`` stays on the classic
single-process harness, the multi-shard cells measure how capacity
scales once each event loop owns a core.  On boxes with fewer cores
than shards the sharded cells still *run* (correctness and parity are
core-count independent) but the speedup gate is skipped -- a 4-process
pile-up on one core measures the scheduler, not the architecture.

Correctness columns (``ops``, ``errors``, ``parity_checked``,
``parity_mismatches``) are deterministic per seed and make up the
committed record; every timing lives under a ``wall``-prefixed key,
which ``_common.emit`` prints but does not commit (the committed
timings of the live runtime are ``benchmarks/perf/out/latest.json``).
"""

from __future__ import annotations

import asyncio
import os
import time

from _common import emit
from repro.core.config import NetworkParams, OverlayParams
from repro.experiments import format_table
from repro.runtime import ClusterConfig, make_cluster
from repro.runtime.wire import Frame, MsgType, decode_frame, encode_frame

#: (transport, nodes, encoding, concurrency, shards) cells;
#: concurrency 0 is the open-loop Poisson mode at RATE; TCP stays
#: small -- real sockets per node
CELLS = (
    ("loopback", 16, "json", 0, 1),
    ("loopback", 16, "packed", 64, 1),
    ("loopback", 64, "json", 0, 1),
    ("loopback", 64, "json", 64, 1),
    ("loopback", 64, "packed", 0, 1),
    ("loopback", 64, "packed", 64, 1),
    ("tcp", 16, "json", 32, 1),
    ("tcp", 16, "packed", 32, 1),
    ("loopback", 64, "packed", 64, 2),
    ("loopback", 64, "packed", 64, 4),
)

#: request counts: open-loop cells replay the historical burst, the
#: closed-loop cells need more requests to reach a steady state
LOOKUPS = 256
CLOSED_LOOKUPS = 2048
RATE = 2000.0
PARITY_LOOKUPS = 64
PARITY_ROUTES = 32

#: cores needed before the multi-shard speedup gate means anything
SPEEDUP_GATE_CPUS = 4
SPEEDUP_FLOOR = 2.0

#: frames per codec micro-bench batch
CODEC_FRAMES = 1000


def codec_microbench(count: int = CODEC_FRAMES) -> dict:
    """Wall seconds to encode+decode ``count`` ROUTE frames, per codec.

    Guards the precompiled-``struct.Struct`` fast path: the packed
    codec exists to beat JSON per hop, so a change that silently drops
    it back behind JSON (a cache regression, an accidental fallback)
    must fail the bench, not just slow the sweep down.
    """
    frames = [
        Frame(
            MsgType.ROUTE,
            i,
            {
                "point": [0.3125, 0.6875],
                "path": [1, 2, 3, 4 + (i % 7)],
                "op": "lookup",
                "src": i % 64,
            },
        )
        for i in range(count)
    ]
    timings = {}
    for packed in (False, True):
        began = time.perf_counter()
        for frame in frames:
            decode_frame(encode_frame(frame, packed=packed))
        timings["packed" if packed else "json"] = (
            time.perf_counter() - began
        )
    return timings


async def drive_cell(
    transport: str,
    nodes: int,
    encoding: str,
    concurrency: int,
    shards: int,
    seed: int = 0,
) -> dict:
    config = ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=seed),
        overlay=OverlayParams(num_nodes=nodes, seed=seed),
        transport=transport,
        wire_encoding=encoding,
        shards=shards,
    )
    cluster = make_cluster(config)
    t0 = time.perf_counter()
    await cluster.start()
    boot_s = time.perf_counter() - t0
    try:
        report = await cluster.run_load(
            rate=RATE,
            count=CLOSED_LOOKUPS if concurrency else LOOKUPS,
            seed=seed,
            concurrency=concurrency,
        )
        verdict = await cluster.verify_against_sim(
            lookups=PARITY_LOOKUPS, routes=PARITY_ROUTES, seed=seed
        )
        boot_per_shard = (
            cluster.boot_report()["wall_boot_s_per_shard"]
            if shards > 1
            else [boot_s]
        )
    finally:
        await cluster.stop()
    pct = report.percentiles()
    return {
        "transport": transport,
        "nodes": nodes,
        "encoding": encoding,
        "shards": shards,
        "mode": report.mode,
        "concurrency": concurrency,
        "ops": report.ops,
        "errors": report.errors,
        "parity_checked": verdict["checked"],
        "parity_mismatches": verdict["mismatches"],
        "loop": report.loop,
        "wall_boot_s": boot_s,
        "wall_boot_s_per_shard": boot_per_shard,
        "wall_p50_ms": pct["p50"],
        "wall_p95_ms": pct["p95"],
        "wall_p99_ms": pct["p99"],
        "wall_throughput_ops": report.achieved_rate,
    }


def bench_perf_runtime(benchmark):
    rows = [asyncio.run(drive_cell(*cell)) for cell in CELLS]
    codec = codec_microbench()
    emit(
        "ext_perf_runtime",
        "Live runtime sweep: nodes x concurrency x encoding x shards, "
        "sim parity",
        format_table(rows),
        rows=rows,
        params={
            "cells": [list(cell) for cell in CELLS],
            "lookups": LOOKUPS,
            "closed_lookups": CLOSED_LOOKUPS,
            "rate": RATE,
            "parity_lookups": PARITY_LOOKUPS,
            "parity_routes": PARITY_ROUTES,
            "topo_scale": 0.25,
            "codec_frames": CODEC_FRAMES,
            "wall_codec_json_s": codec["json"],
            "wall_codec_packed_s": codec["packed"],
        },
    )

    # the timed unit: boot + a short lookup burst on a small cluster
    async def unit():
        config = ClusterConfig(
            nodes=8,
            network=NetworkParams(topo_scale=0.25, seed=0),
            overlay=OverlayParams(num_nodes=8, seed=0),
        )
        async with make_cluster(config) as cluster:
            await cluster.run_load(rate=RATE, count=32, seed=0)

    benchmark(lambda: asyncio.run(unit()))

    assert all(row["errors"] == 0 for row in rows), rows
    assert all(row["parity_mismatches"] == 0 for row in rows), rows
    assert all(
        row["ops"] == (CLOSED_LOOKUPS if row["concurrency"] else LOOKUPS)
        for row in rows
    )
    # the packed codec must beat JSON on a like-for-like frame batch:
    # a cache regression or silent JSON fallback fails here first
    assert codec["packed"] <= codec["json"], codec
    # the closed-loop packed cells must clear the open-loop ceiling:
    # a regression that re-pins the runtime to the arrival schedule
    # (or a codec fallback to JSON-everywhere) should fail loudly
    by_cell = {
        (
            r["transport"], r["nodes"], r["encoding"],
            r["concurrency"], r["shards"],
        ): r
        for r in rows
    }
    fast = by_cell[("loopback", 64, "packed", 64, 1)]
    assert fast["wall_throughput_ops"] > RATE, fast
    # sharding earns its keep only when each loop owns a core; with
    # enough of them, 4 shards must at least double the 1-shard cell
    if (os.cpu_count() or 1) >= SPEEDUP_GATE_CPUS:
        sharded = by_cell[("loopback", 64, "packed", 64, 4)]
        floor = SPEEDUP_FLOOR * fast["wall_throughput_ops"]
        assert sharded["wall_throughput_ops"] >= floor, (fast, sharded)
