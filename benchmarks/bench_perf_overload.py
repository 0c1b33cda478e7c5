"""Overload benchmark: goodput and safety past the saturation knee.

Not a paper figure -- this exercises the overload protection of the
live runtime past its knee.  One loopback cluster boots
with small data-lane mailboxes and the SWIM recovery stack armed,
then takes a closed-loop sweep: worker pools holding 0.5x, 1x, 2x and
4x the capacity-probe concurrency in flight.  (A closed loop is the
honest overload model for an in-process cluster -- client and server
share one event loop, so an open-loop schedule far past capacity
degenerates into a single mega-burst whose issue cost starves the
server it is measuring.)

Past the knee the bounded mailboxes shed queue overflow oldest-first,
origins see BUSY and fail fast (per-peer circuit breakers fast-fail
persistent streaks locally), and the detector keeps treating
saturated-but-responsive nodes as alive.  The headline shape this
pins:

* goodput stays flat past saturation -- the 4x cell must deliver at
  least 80% of the sweep's peak goodput; overload shows up as rising
  p99 latency and shed counts, not collapsing throughput;
* overload is never mistaken for death -- zero false crash verdicts
  and an empty confirmed-dead list with the detector running through
  the whole sweep;
* protection actually engaged -- the sweep records a nonzero shed
  count past the knee.

Goodput, latency, shed and breaker columns depend on wall-clock races
so they live under ``wall``-prefixed keys, which ``_common.emit``
prints but keeps out of the committed record; what is committed is the
multiplier/concurrency grid and the protection knobs the assertions
below were judged under.
"""

from __future__ import annotations

import asyncio

from _common import emit
from repro.core.config import NetworkParams, OverlayParams
from repro.experiments import current_scale, format_table
from repro.runtime import Cluster, ClusterConfig, run_load

MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
#: small enough that a 4x worker pool overflows the hot owners'
#: lanes -- shedding, not unbounded queueing, absorbs the overload
MAILBOX_CAP = 16
SEED = 0

#: closed-loop in-flight budget of the capacity probe (the loopback
#: cluster already saturates here); the sweep cells hold
#: ``multiplier * CONCURRENCY`` requests in flight
CONCURRENCY = 16


def _sizes():
    if current_scale().name == "quick":
        return {"nodes": 12, "capacity_count": 512, "cell_count": 3000}
    return {"nodes": 12, "capacity_count": 2048, "cell_count": 12000}


async def drive(sizes: dict) -> tuple:
    config = ClusterConfig(
        nodes=sizes["nodes"],
        network=NetworkParams(topo_scale=0.25, seed=SEED),
        overlay=OverlayParams(num_nodes=sizes["nodes"], seed=SEED),
        mailbox_cap=MAILBOX_CAP,
        # shed load fails fast: in a closed loop the worker reissues
        # immediately, so retrying into a still-full lane only burns
        # the shared event loop.  Breakers fast-fail persistent
        # per-peer BUSY streaks locally and re-probe quickly.
        busy_retries=0,
        breaker_threshold=8,
        breaker_reset_s=0.03,
    )
    rows = []
    async with Cluster(config) as cluster:
        recovery = await cluster.enable_recovery()

        # capacity probe, then the overload sweep on the same (warm)
        # cluster with the detector live throughout
        capacity = None
        cells = [("capacity", 0.0, CONCURRENCY, sizes["capacity_count"])] + [
            (f"open_{m:g}x", m, int(m * CONCURRENCY), sizes["cell_count"])
            for m in MULTIPLIERS
        ]
        for cell, multiplier, concurrency, count in cells:
            before = cluster.overload_counters()
            report = await run_load(
                cluster, rate=0.0, count=count, seed=SEED, concurrency=concurrency
            )
            after = cluster.overload_counters()
            pct = report.percentiles()
            goodput = (
                report.succeeded / report.wall_duration_s
                if report.wall_duration_s > 0
                else 0.0
            )
            if capacity is None:
                capacity = goodput
            rows.append(
                {
                    "cell": cell,
                    "multiplier": multiplier,
                    "concurrency": concurrency,
                    "nodes": sizes["nodes"],
                    "mailbox_cap": MAILBOX_CAP,
                    "ops": report.ops,
                    "wall_goodput_ops": goodput,
                    "wall_errors": report.errors,
                    "wall_shed": report.shed,
                    "wall_busy_errors": report.busy_errors,
                    "wall_breaker_fastfails": report.breaker_fastfails,
                    "wall_breaker_opens": after["breaker_opens"]
                    - before["breaker_opens"],
                    "wall_p50_ms": pct["p50"],
                    "wall_p99_ms": pct["p99"],
                }
            )

        verdict = {
            "wall_capacity_ops": capacity,
            "wall_false_crashes": recovery.false_kills,
            "wall_confirmed_dead": len(recovery.confirmed_dead),
            "wall_detector_rounds": recovery.rounds,
            "wall_shed_total": cluster.overload_counters()["shed"],
            "wall_breaker_opens_total": cluster.overload_counters()[
                "breaker_opens"
            ],
        }
    return rows, verdict


def bench_perf_overload(benchmark):
    sizes = _sizes()
    rows, verdict = asyncio.run(drive(sizes))
    emit(
        "ext_overload",
        f"Overload sweep: goodput vs in-flight load ({current_scale().name})",
        format_table(rows),
        rows=rows,
        params={
            "scale": current_scale().name,
            "multipliers": list(MULTIPLIERS),
            "mailbox_cap": MAILBOX_CAP,
            "concurrency": CONCURRENCY,
            "topo_scale": 0.25,
            **verdict,
        },
        seed=SEED,
    )

    # the timed unit: a short 2x-overload burst on a small cluster
    async def unit():
        config = ClusterConfig(
            nodes=8,
            network=NetworkParams(topo_scale=0.25, seed=SEED),
            overlay=OverlayParams(num_nodes=8, seed=SEED),
            mailbox_cap=32,
        )
        async with Cluster(config) as cluster:
            await run_load(cluster, rate=0.0, count=256, seed=SEED, concurrency=64)

    benchmark(lambda: asyncio.run(unit()))

    by_cell = {row["cell"]: row for row in rows}
    knee = by_cell["open_4x"]
    # the sub-saturation reference: the capacity probe and the 0.5x
    # cell.  (The 1x/2x cells can overshoot it -- deeper queues buy
    # extra pipelining -- but that hump is wall-noise-sensitive, so
    # the plateau is judged against the uncongested goodput.)
    peak = max(
        verdict["wall_capacity_ops"], by_cell["open_0.5x"]["wall_goodput_ops"]
    )
    # flat plateau: 4x in-flight overload keeps goodput within 20% of
    # peak capacity instead of collapsing under queueing
    assert knee["wall_goodput_ops"] >= 0.8 * peak, rows
    # protection engaged past the knee ...
    assert knee["wall_shed"] + by_cell["open_2x"]["wall_shed"] > 0, rows
    # ... and the detector never mistook overload for death
    assert verdict["wall_false_crashes"] == 0, verdict
    assert verdict["wall_confirmed_dead"] == 0, verdict
    assert verdict["wall_detector_rounds"] > 0, verdict
