"""Load driver for live clusters: open-loop Poisson or closed-loop pool.

Replays :mod:`repro.workloads.generator` traffic against a running
:class:`~repro.runtime.cluster.Cluster` in one of two modes:

* **open loop** (``concurrency=0``, the default): each request fires
  at its scheduled Poisson arrival time regardless of whether earlier
  requests finished -- the model that exposes queueing collapse,
  because offered load does not self-throttle;
* **closed loop** (``concurrency=N``): a pool of N workers keeps
  exactly N requests in flight, each worker issuing its next request
  the moment the previous one completes.  Offered load is whatever
  the system can absorb -- the mode that measures capacity instead of
  compliance with an arrival schedule.

The driver records per-request wall latency, success-only latency
percentiles (p50/p95/p99), a separate error-latency summary (timed
out or failed requests spend their timeout on the clock -- folding
them into the success percentiles would smear a latency cliff into
the p99), achieved throughput and error counts.  Deterministic facts
(operations, errors, per-op owners) go into the network's telemetry
counters; wall-clock durations are reported under ``wall``-prefixed
keys only, which the bench layer prints but keeps out of its committed
records (see ``benchmarks/_common``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.reliability import CircuitOpenError
from repro.runtime.node import PeerBusy
from repro.workloads.generator import poisson_arrivals, uniform_points


def latency_percentiles(latencies_ms) -> dict:
    """p50/p95/p99 of a latency sample (ms); NaN when empty."""
    if len(latencies_ms) == 0:
        return {"p50": float("nan"), "p95": float("nan"), "p99": float("nan")}
    array = np.asarray(latencies_ms, dtype=np.float64)
    p50, p95, p99 = np.percentile(array, [50.0, 95.0, 99.0])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


@dataclass
class LoadReport:
    """Outcome of one load run (open- or closed-loop)."""

    ops: int
    errors: int
    #: wall latency of each *successful* request, ms, completion order
    latencies_ms: list = field(default_factory=list)
    #: wall latency of each errored/timed-out request, ms
    error_latencies_ms: list = field(default_factory=list)
    #: offered arrival rate (requests/second; 0 in closed-loop mode)
    offered_rate: float = 0.0
    #: "open" (Poisson schedule) or "closed" (worker pool)
    mode: str = "open"
    #: in-flight request budget of the closed-loop pool (0 when open)
    concurrency: int = 0
    #: wall seconds from first arrival to last completion
    wall_duration_s: float = 0.0
    #: request attempts resent under the cluster's retry policy
    retries: int = 0
    #: wall milliseconds slept in retry backoff across the run
    backoff_ms: float = 0.0
    #: requests that ultimately failed with a BUSY shed (subset of
    #: ``errors``; BUSY retries that then succeeded are not errors)
    busy_errors: int = 0
    #: requests refused locally by an open circuit breaker
    breaker_fastfails: int = 0
    #: server-side data-lane sheds observed during this run
    shed: int = 0
    #: event-loop flavor that drove the run ("asyncio" or "uvloop");
    #: sharded runs report the workers' loop
    loop: str = ""

    @property
    def succeeded(self) -> int:
        return self.ops - self.errors

    @property
    def achieved_rate(self) -> float:
        """Completed requests per wall second."""
        if self.wall_duration_s <= 0.0:
            return 0.0
        return self.succeeded / self.wall_duration_s

    def percentiles(self) -> dict:
        """Success-only latency percentiles (errors summarized apart)."""
        return latency_percentiles(self.latencies_ms)

    def error_percentiles(self) -> dict:
        """Percentiles of the errored requests' wall latencies."""
        return latency_percentiles(self.error_latencies_ms)

    def summary(self) -> dict:
        """Flat report; wall-derived numbers under ``wall*`` keys only."""
        pct = self.percentiles()
        err = self.error_percentiles()
        return {
            "ops": self.ops,
            "errors": self.errors,
            "mode": self.mode,
            "concurrency": self.concurrency,
            "offered_rate": self.offered_rate,
            "wall_duration_s": self.wall_duration_s,
            "wall_throughput_ops": self.achieved_rate,
            "wall_p50_ms": pct["p50"],
            "wall_p95_ms": pct["p95"],
            "wall_p99_ms": pct["p99"],
            # errored requests report their own latency spectrum -- a
            # timeout cliff must not masquerade as a success percentile
            "wall_error_p50_ms": err["p50"],
            "wall_error_p99_ms": err["p99"],
            # retry counts depend on wall-clock races (which attempts
            # time out), so they live under the wall contract too
            "wall_retries": self.retries,
            "wall_backoff_ms": self.backoff_ms,
            # overload reactions are wall-race-dependent as well: which
            # requests get shed depends on queue depths at arrival time
            "wall_busy_errors": self.busy_errors,
            "wall_breaker_fastfails": self.breaker_fastfails,
            "wall_shed": self.shed,
            "loop": self.loop,
        }


def _build_requests(cluster, op: str, count: int, rng, sources=None) -> list:
    """Draw the request list; ``sources`` restricts *originators* only.

    A shard worker passes its owned node ids as ``sources`` so every
    request starts on a local actor, while lookup keys and route
    destinations stay cluster-wide (cross-shard traffic is whatever
    the tessellation dictates).  With ``sources=None`` the draw
    sequence is bit-identical to what it has always been, keeping
    existing seeded workloads replayable.
    """
    ids = np.array(cluster.node_ids)
    pool = ids if sources is None else np.array(sorted(sources))
    dims = cluster.overlay.ecan.dims
    if op == "lookup":
        origins = rng.choice(pool, size=count)
        points = uniform_points(count, dims, rng)
        return [
            (int(origins[i]), tuple(float(x) for x in points[i]))
            for i in range(count)
        ]
    if op == "route":
        if sources is None:
            return [
                tuple(int(x) for x in rng.choice(ids, size=2, replace=False))
                for _ in range(count)
            ]
        pairs = []
        for _ in range(count):
            src = int(rng.choice(pool))
            dst = int(rng.choice(ids))
            while dst == src:
                dst = int(rng.choice(ids))
            pairs.append((src, dst))
        return pairs
    raise ValueError(f"unknown op {op!r} (want 'lookup' or 'route')")


async def run_load(
    cluster,
    rate: float,
    count: int,
    seed: int = 0,
    op: str = "lookup",
    concurrency: int = 0,
    sources=None,
) -> LoadReport:
    """Drive ``count`` requests against ``cluster``.

    ``op`` selects the request mix: ``"lookup"`` routes uniform keys
    from random members to their owners; ``"route"`` routes between
    random member pairs.  The workload is a pure function of ``seed``,
    so the same run can be replayed on the synchronous simulator for
    parity checks.

    With ``concurrency=0`` requests fire open-loop at Poisson arrival
    times drawn for ``rate``/s.  With ``concurrency=N > 0`` a pool of
    N workers holds N requests in flight (closed loop); ``rate`` is
    ignored for scheduling and the report's ``offered_rate`` is 0.
    """
    rng = np.random.default_rng(seed)
    closed = concurrency > 0
    arrivals = None if closed else poisson_arrivals(rate, count, rng)
    requests = _build_requests(cluster, op, count, rng, sources=sources)

    loop = asyncio.get_running_loop()
    report = LoadReport(
        ops=count,
        errors=0,
        offered_rate=0.0 if closed else float(rate),
        mode="closed" if closed else "open",
        concurrency=int(concurrency) if closed else 0,
    )
    # the network's counts are process-lifetime; read them before and
    # after so the report charges only this run's resends and sheds
    telemetry = cluster.network.telemetry
    events = telemetry.events
    before = {
        name: events[name] for name in ("retry", "backoff_ms", "runtime_shed")
    }

    async def issue(index: int) -> None:
        began = time.perf_counter()
        try:
            if op == "lookup":
                source, point = requests[index]
                await cluster.lookup(source, point)
            else:
                source, dest = requests[index]
                await cluster.route(source, dest)
        except CircuitOpenError:
            # the overload reaction working as designed: refused
            # locally, near-zero latency, no load on the hot peer
            report.errors += 1
            report.breaker_fastfails += 1
            report.error_latencies_ms.append(
                (time.perf_counter() - began) * 1000.0
            )
        except PeerBusy:
            # shed server-side and still BUSY after the retry budget
            report.errors += 1
            report.busy_errors += 1
            report.error_latencies_ms.append(
                (time.perf_counter() - began) * 1000.0
            )
        except Exception:
            report.errors += 1
            report.error_latencies_ms.append(
                (time.perf_counter() - began) * 1000.0
            )
        else:
            report.latencies_ms.append((time.perf_counter() - began) * 1000.0)

    start_time = loop.time()

    async def worker(indices) -> None:
        for index in indices:  # shared iterator: each worker pulls the next
            await issue(index)

    wall_began = time.perf_counter()
    if closed:
        indices = iter(range(count))
        await asyncio.gather(
            *(worker(indices) for _ in range(min(concurrency, count)))
        )
    else:
        # open loop as a single pacer: spawn each request's task at its
        # arrival time instead of pre-spawning `count` sleeping tasks
        # up front -- at several times capacity that pre-spawn is tens
        # of thousands of timers before the first request even fires
        pending = []
        for index in range(count):
            delay = start_time + float(arrivals[index]) - loop.time()
            if delay > 0.0:
                await asyncio.sleep(delay)
            pending.append(loop.create_task(issue(index)))
        await asyncio.gather(*pending)
    report.wall_duration_s = time.perf_counter() - wall_began
    report.retries = int(events["retry"] - before["retry"])
    report.backoff_ms = float(events["backoff_ms"] - before["backoff_ms"])
    report.shed = int(events["runtime_shed"] - before["runtime_shed"])
    report.loop = type(loop).__module__.split(".")[0]

    telemetry.count("loadgen_ops", report.ops)
    telemetry.count("loadgen_errors", report.errors)
    pct = report.percentiles()
    if np.isfinite(pct["p99"]):
        telemetry.gauge("loadgen_wall_p99_ms", pct["p99"])
    return report
