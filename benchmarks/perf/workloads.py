"""The seven workloads: seeded request generators and their drivers.

Every workload is a class with two entry points, ``measure(seconds)``
(tracing off, returns the end-to-end metrics) and ``traced(seconds)``
(returns the per-layer metrics), plus ``input_digest()`` so
``selfcheck.py`` can show that the inputs are a pure function of the
seed.  ``--seed`` drives only what the *generator* decides -- origins,
keys, arrival gaps, the read/write coin, member pairs, join
capacities; topology and overlay seeds stay 0 so the overlay itself,
and with it ``mean_stretch`` and the hop counts, is the same for every
seed of the same code.

A workload never reaches into ``src/`` beyond public calls; the
layers are measured from outside (see ``trace.py``).
"""

from __future__ import annotations

import asyncio
import gc
import time

import numpy as np

from repro.core.builder import TopologyAwareOverlay
from repro.core.config import NetworkParams, OverlayParams, make_network
from repro.core.recovery import check_invariants
from repro.core.reliability import CircuitOpenError
from repro.runtime import ClusterConfig, make_cluster
from repro.runtime.node import PeerBusy, RequestTimeout
from repro.runtime.wire import Frame, MsgType, decode_frame, encode_frame
from repro.softstate.maps import Region

import harness
import trace as tracing
from harness import Calibrated, Recorder

#: generated requests per run; drivers cycle through them
REQUESTS = 1 << 16
#: seconds of untimed load before the first slice
WARMUP_S = 1.0
#: cold set-ups per run (``setup_s`` is their median)
SETUPS = 3
#: fixed (seed-independent) sample behind ``mean_stretch`` and sim parity
STRETCH_SAMPLE = 256
STRETCH_SEED = 0x57E7C4
#: repetitions of an isolated micro-cell; the fastest one is reported
MICRO_REPS = 5

LIVE_NETWORK = NetworkParams(topo_scale=0.25, seed=0)
#: the one overload setting that is not the default.  The adaptive
#: request timeout settles at its 0.25 s floor, and on a shared box a
#: neighbour can freeze a shard worker (or a TCP reader) for longer
#: than that: a 0.4 s SIGSTOP of one worker timed out 18 requests.
#: That is the box failing, not the system, so the floor is raised;
#: the per-request code path (RTT sampling, Jacobson RTO) is unchanged.
RTO_FLOOR_S = 5.0
#: 1240 physical nodes, so 1024 members are mostly one per host
SIM_NETWORK = NetworkParams(topo_scale=0.5, seed=0)
SIM_NODES = 1024


class Fastest:
    """The fastest of several passes, in reference-box seconds: every
    pass is rescaled by the two calibrations that bracket it."""

    def __init__(self):
        self.seconds = float("inf")
        self._calib = harness.calibrate()

    def add(self, elapsed_s: float) -> None:
        before, self._calib = self._calib, harness.calibrate()
        rescaled = elapsed_s * 2.0 * harness.CALIB_REF_MS / (before + self._calib)
        self.seconds = min(self.seconds, rescaled)


def best_us(fn, items) -> float:
    """Fastest of :data:`MICRO_REPS` passes of ``fn`` over ``items``, in
    reference-box µs per item."""
    if not items:
        return 0.0
    fastest = Fastest()
    for _ in range(MICRO_REPS):
        began = time.perf_counter()
        for item in items:
            fn(item)
        fastest.add(time.perf_counter() - began)
    return fastest.seconds / len(items) * 1e6


def overlay_micro_cells(overlay, routing, rng) -> dict:
    """Isolated cells on one overlay: routing, map store, oracle.

    ``routing`` is whatever makes the forwarding decision: a cluster's
    ``RoutingView``, or the bare ``overlay.ecan`` it forwards to."""
    ids = np.array(overlay.node_ids)
    members = rng.choice(ids, size=256).tolist()
    points = rng.random((256, overlay.ecan.dims)).tolist()
    cells = rng.integers(0, 2, size=(256, overlay.ecan.dims)).tolist()
    hosts = [int(overlay.ecan.can.nodes[m].host) for m in members]
    store, ecan, oracle = overlay.store, overlay.ecan, overlay.network.oracle
    keyed = list(zip(members, points))
    regional = [(m, Region(1, tuple(c))) for m, c in zip(members, cells)]
    return {
        "routing.next_hop_us": best_us(
            lambda mp: routing.next_hop(mp[0], mp[1], visited=[mp[0]]), keyed
        ),
        "ecan.route_us": best_us(lambda mp: ecan.route(mp[0], mp[1]), keyed),
        "store.lookup_us": best_us(
            lambda mr: store.lookup(mr[0], mr[1], charge=False), regional
        ),
        "store.publish_us": best_us(store.publish, members[:64]),
        "oracle.distance_us": best_us(
            lambda uv: oracle.distance(uv[0], uv[1]), list(zip(hosts, hosts[1:]))
        ),
        "store.total_entries": float(store.total_entries()),
    }


def wire_micro_cells(fixtures: dict) -> dict:
    """Codec cells on frames captured from the traced traffic."""
    out = {}
    for kind in ("route", "ack", "publish"):
        frames = [Frame(*triple) for triple in fixtures.get(MsgType[kind.upper()], ())]
        encoded = [encode_frame(frame, packed=True) for frame in frames]
        out[f"wire.encode_us.{kind}"] = best_us(
            lambda frame: encode_frame(frame, packed=True), frames
        )
        out[f"wire.decode_us.{kind}"] = best_us(decode_frame, encoded)
        if kind != "publish":
            out[f"wire.frame_bytes.{kind}"] = (
                float(np.mean([len(data) for data in encoded])) if encoded else 0.0
            )
    return out


def prewarm_s(network) -> float:
    """Seconds to fill the oracle's row cache for every stub host."""
    began = time.perf_counter()
    network.oracle.rows(network.topology.stub_nodes())
    return time.perf_counter() - began


def counters_delta(before: dict, after: dict, section: str) -> dict:
    """Growth of one section of ``Cluster.counters()`` between two reads."""
    return {key: after[section][key] - before[section][key] for key in after[section]}


def stretch_of_path(routing, oracle, path):
    """Path latency over direct latency, or None for a degenerate pair."""
    hosts = [routing.host_of(node) for node in path]
    direct = oracle.distance(hosts[0], hosts[-1])
    if direct <= 1e-9:
        return None
    hops = sum(oracle.distance(a, b) for a, b in zip(hosts, hosts[1:]))
    return hops / direct


class Workload:
    """Shared bookkeeping: the seed, the recorder, the result shape."""

    name = ""
    #: do wall times scale with the box's speed (see ``harness.Recorder``)?
    cpu_bound = True
    #: open loop only: how late each request fired, and its latency
    #: from the actual send (both in seconds)
    late_s = send_s = ()

    def __init__(self, seed: int, out_dir=None):
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        #: human-readable reasons the run is not correct
        self.problems: list = []
        #: values that are a pure function of the code, not of the seed
        #: or the clock: two runs must agree on them to the last bit
        self.exact: dict = {}

    def note(self, problem: str) -> None:
        """Keep the first few reasons; thousands would say no more."""
        if len(self.problems) < 4:
            self.problems.append(problem)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "problems": self.problems,
        }

    def dump_spans(self, tracer) -> None:
        if self.out_dir is not None:
            tracer.dump(
                f"{self.out_dir}/trace_{self.name}.json",
                workload=self.name,
                seed=self.seed,
            )


# -- live runtime ------------------------------------------------------------------


class LiveWorkload(Workload):
    """Single-process cluster driven by one asyncio generator."""

    nodes = 64
    transport = "loopback"
    concurrency = 32
    #: open-loop arrival rate (requests/s); 0 selects the closed loop
    rate = 0.0
    #: share of operations that are PUBLISH writes (map workload only)
    write_share = 0.0
    slice_s = 0.05

    def __init__(self, seed: int, out_dir=None):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng(seed)
        self.members = rng.integers(0, self.nodes, size=REQUESTS)
        self.points = rng.random((REQUESTS, 2))
        self.cells = rng.integers(0, 2, size=(REQUESTS, 2))
        self.coin = rng.random(REQUESTS)
        self.gaps = (
            rng.exponential(1.0 / self.rate, size=REQUESTS) if self.rate else None
        )
        self._cursor = 0
        self.timeouts = 0
        self.late_s, self.send_s = [], []
        self.cluster = None
        self.issue = self._issue

    def input_digest(self) -> str:
        parts = [self.members, self.points, self.cells, self.coin]
        if self.gaps is not None:
            parts.append(self.gaps)
        return harness.digest(*parts)

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            nodes=self.nodes,
            network=LIVE_NETWORK,
            overlay=OverlayParams(num_nodes=self.nodes, seed=0),
            transport=self.transport,
            wire_encoding="packed",
            rto_min_s=RTO_FLOOR_S,
        )

    async def boot(self) -> float:
        """Cold set-up to the first successful operation; returns its
        seconds on the reference box."""
        with harness.ReferenceTimer() as timer:
            self.cluster = make_cluster(self.config())
            await self.cluster.start()
            ids = self.cluster.node_ids
            # generated member indices address the membership in join order
            self._requests = self._bind_requests(ids)
            await self.cluster.lookup(ids[0], (0.25, 0.75))
        return timer.seconds

    def _bind_requests(self, ids) -> list:
        members = [ids[int(i)] for i in self.members]
        points = self.points.tolist()
        if not self.write_share:
            return list(zip(members, points))
        regions = [Region(1, (int(a), int(b))) for a, b in self.cells]
        writes = (self.coin < self.write_share).tolist()
        return list(zip(members, regions, writes))

    async def _issue(self, index: int) -> bool:
        """One operation; False when it failed or answered wrongly."""
        request = self._requests[index % REQUESTS]
        cluster = self.cluster
        try:
            if not self.write_share:
                member, point = request
                ack = await cluster.lookup(member, point)
                right = ack["path"][0] == member and ack["hops"] == len(ack["path"]) - 1
            elif request[2]:
                member = request[0]
                ack = await cluster.publish(member)
                right = ack["node_id"] == member and ack["regions"] >= 1
            else:
                member, region, _ = request
                ack = await cluster.lookup_map(member, region)
                right = ack["served_by"] == ack["owner"] and member not in ack["records"]
            if not right:
                self.note(f"wrong answer to request {index}: {ack!r}")
            return right
        except RequestTimeout:
            self.timeouts += 1
        except (PeerBusy, CircuitOpenError):
            pass
        except Exception as exc:  # any other refusal is a failed request too
            self.note(repr(exc))
        return False

    # -- slices ------------------------------------------------------------------

    async def closed_slice(self, duration: float) -> tuple:
        latencies = []
        failures = 0
        issue = self.issue
        cpu = time.process_time()
        began = time.perf_counter()
        deadline = began + duration

        async def worker():
            nonlocal failures
            while True:
                start = time.perf_counter()
                if start >= deadline:
                    return
                index = self._cursor
                self._cursor = index + 1
                if await issue(index):
                    latencies.append(time.perf_counter() - start)
                else:
                    failures += 1

        await asyncio.gather(*(worker() for _ in range(self.concurrency)))
        wall = time.perf_counter() - began
        return len(latencies), wall, time.process_time() - cpu, latencies, failures

    async def open_slice(self, duration: float) -> tuple:
        """Poisson arrivals from one pacer; latency runs from the due time."""
        latencies = []
        failures = 0
        issue = self.issue
        loop = asyncio.get_running_loop()

        async def fire(index, due):
            nonlocal failures
            sent = time.perf_counter()
            ok = await issue(index)
            done = time.perf_counter()
            if ok:
                latencies.append(done - due)
                self.late_s.append(sent - due)
                self.send_s.append(done - sent)
            else:
                failures += 1

        cpu = time.process_time()
        began = time.perf_counter()
        due = began
        pending = []
        while True:
            index = self._cursor
            due += float(self.gaps[index % REQUESTS])
            if due - began >= duration:
                break
            self._cursor = index + 1
            delay = due - time.perf_counter()
            if delay > 0.0:
                await asyncio.sleep(delay)
            pending.append(loop.create_task(fire(index, due)))
        await asyncio.gather(*pending)
        wall = time.perf_counter() - began
        return len(latencies), wall, time.process_time() - cpu, latencies, failures

    async def warm_up(self) -> None:
        one = self.open_slice if self.rate else self.closed_slice
        ending = time.perf_counter() + WARMUP_S
        while time.perf_counter() < ending:
            await one(self.slice_s)

    async def timed(self, seconds: float, recorder: Recorder, tracer=None) -> None:
        """Calibrated slices for ``seconds``; ``tracer`` is switched on
        inside the slices only, never around a calibration."""
        one = self.open_slice if self.rate else self.closed_slice
        calibrated = Calibrated(recorder)
        calibrated.begin()
        ending = time.perf_counter() + seconds
        while time.perf_counter() < ending:
            with tracing.switched_on(tracer):
                ops, wall, cpu, latencies, failures = await one(self.slice_s)
            calibrated.record(ops, wall, cpu, latencies)
            self.attempted += ops + failures
            self.failed += failures

    # -- correctness -----------------------------------------------------------------

    async def parity_and_stretch(self) -> dict:
        """The fixed 256-lookup sample: sim parity, stretch, hop count."""
        cluster = self.cluster
        sim = cluster.build_reference_sim()
        rng = np.random.default_rng(STRETCH_SEED)
        # sorted: a sharded cluster lists its members in shard order
        ids = sorted(cluster.node_ids)
        oracle = cluster.network.oracle
        stretches, hops, mismatches = [], 0, 0
        for _ in range(STRETCH_SAMPLE):
            src = ids[int(rng.integers(0, len(ids)))]
            point = tuple(float(x) for x in rng.random(2))
            live = await cluster.lookup(src, point)
            reference = sim.ecan.route(src, point, category="parity_check")
            if not reference.success or live["owner"] != reference.owner:
                mismatches += 1
            hops += live["hops"]
            stretch = stretch_of_path(cluster.routing, oracle, live["path"])
            if stretch is not None:
                stretches.append(stretch)
        self.attempted += STRETCH_SAMPLE
        self.failed += mismatches
        if mismatches:
            self.problems.append(f"{mismatches} sim-parity mismatches")
        self.exact.update(
            {
                "mean_stretch": float(np.mean(stretches)),
                "routing.hops_per_op": hops / STRETCH_SAMPLE,
            }
        )
        return self.exact

    # -- entry points ------------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        return self.result(asyncio.run(self._measure(seconds)))

    async def _measure(self, seconds: float) -> dict:
        setups = []
        for _ in range(SETUPS):
            if self.cluster is not None:
                await self.cluster.stop()
            setups.append(await self.boot())
        recorder = Recorder(self.cpu_bound)
        try:
            await self.warm_up()
            await self.timed(seconds, recorder)
            sample = await self.parity_and_stretch()
        finally:
            await self.cluster.stop()
        metrics = recorder.end_to_end()
        metrics["setup_s"] = float(np.median(setups))
        metrics["mean_stretch"] = sample["mean_stretch"]
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        return metrics

    def traced(self, seconds: float) -> dict:
        return self.result(asyncio.run(self._traced(seconds)))

    async def _traced(self, seconds: float) -> dict:
        # pass 1, nothing installed: the reference the overhead is taken against
        await self.boot()
        plain = Recorder(self.cpu_bound)
        try:
            await self.warm_up()
            await self.timed(seconds / 4.0, plain)
        finally:
            await self.cluster.stop()

        tracer = tracing.Tracer()
        tracing.install_live(tracer)
        traced = Recorder(self.cpu_bound)
        try:
            await self.boot()
            self.issue = self._traced_issue(tracer)
            await self.warm_up()
            before = await self.cluster.counters()
            watch = asyncio.get_running_loop().create_task(self._watch_mailboxes())
            await self.timed(seconds / 2.0, traced, tracer)
            watch.cancel()
            await asyncio.gather(watch, return_exceptions=True)
            after = await self.cluster.counters()
            tracer.uninstall()
            self.issue = self._issue
            sample = await self.parity_and_stretch()
            metrics = self._layer_metrics(tracer, plain, traced, before, after)
            metrics["node.mailbox_depth_max"] = float(self.deepest_mailbox)
            metrics["routing.hops_per_op"] = sample["routing.hops_per_op"]
            metrics.update(await self._micro_cells(tracer))
        finally:
            tracer.uninstall()
            await self.cluster.stop()
        self.dump_spans(tracer)
        return metrics

    def _traced_issue(self, tracer):
        spanned = tracer.coroutine("gen", "gen.issue", self._issue)

        async def issue(index):
            tracing.REQUEST.set(index)
            return await spanned(index)

        return issue

    async def _watch_mailboxes(self) -> None:
        """Sample the deepest mailbox every 2 ms until cancelled."""
        self.deepest_mailbox = 0
        actors = list(self.cluster.actors.values())
        while True:
            depth = max(actor.mailbox_depth for actor in actors)
            self.deepest_mailbox = max(self.deepest_mailbox, depth)
            await asyncio.sleep(0.002)

    def _layer_metrics(self, tracer, plain, traced, before, after) -> dict:
        ops = max(1, traced.total_ops)
        per_op, cpu_per_op = reference_us_per_op(tracer, traced)
        counts = tracer.counts
        frames = counts["wire.frames"]
        hops = counts["can"] + counts["expressway"]
        lookups = tracer.calls["store.lookup"]
        transport = counters_delta(before, after, "transport")
        overload = counters_delta(before, after, "overload")
        metrics = {
            "wire.self_us_per_op": per_op.get("wire", 0.0),
            "wire.frames_per_op": frames / ops,
            "wire.fallback_share": counts["wire.fallback"] / frames if frames else 0.0,
            "transport.self_us_per_op": per_op.get("transport", 0.0),
            "transport.sent_per_op": transport["sent"] / ops,
            "transport.dropped": float(transport["dropped"]),
            "transport.backpressure_drops": float(transport["backpressure_drops"]),
            "node.self_us_per_op": per_op.get("node", 0.0),
            "node.shed": float(overload["shed"]),
            "node.busy_retries": float(overload["busy_retries"]),
            "node.timeouts": float(self.timeouts),
            "node.breaker_opens": float(overload["breaker_opens"]),
            "routing.self_us_per_op": per_op.get("routing", 0.0),
            "routing.expressway_share": (
                counts["expressway"] / hops if hops else 0.0
            ),
            "cluster.self_us_per_op": per_op.get("cluster", 0.0),
            "store.self_us_per_op": per_op.get("store", 0.0),
            "store.records_per_lookup": (
                counts["store.records"] / lookups if lookups else 0.0
            ),
            "store.widened_share": (
                counts["store.widened"] / lookups if lookups else 0.0
            ),
            "gen.self_us_per_op": per_op.get("gen", 0.0),
            **trace_cost_metrics(per_op, cpu_per_op, plain, traced),
        }
        metrics.update(generator_metrics(plain, self))
        return metrics

    async def _micro_cells(self, tracer) -> dict:
        cluster = self.cluster
        rng = np.random.default_rng(self.seed)
        cells = overlay_micro_cells(cluster.overlay, cluster.routing, rng)
        cells.update(wire_micro_cells(tracer.fixtures))
        cells["oracle.prewarm_s"] = prewarm_s(make_network(LIVE_NETWORK))
        pairs = rng.choice(np.array(cluster.node_ids), size=(64, 2)).tolist()
        fastest = Fastest()
        for _ in range(MICRO_REPS):
            began = time.perf_counter()
            for seq, (src, dst) in enumerate(pairs):
                await cluster.ping(src, dst, seq=seq)
            fastest.add(time.perf_counter() - began)
        cells["node.ping_us"] = fastest.seconds / len(pairs) * 1e6
        return cells


def reference_us_per_op(tracer, traced: Recorder) -> tuple:
    """``({layer: self µs per op}, CPU µs per op)`` of the traced slices,
    both rescaled to the reference box by the slices' median calibration."""
    ops = max(1, traced.total_ops)
    scale = 1e6 / ops * harness.CALIB_REF_MS / harness.quantile(traced.calib_ms, 50)
    per_op = {layer: seconds * scale for layer, seconds in tracer.self_s.items()}
    return per_op, sum(traced.cpu_s) * scale


def trace_cost_metrics(per_op: dict, cpu_per_op: float, plain, traced) -> dict:
    """What tracing cost and what it could not attribute."""
    return {
        "gen.trace_us_per_op": per_op.get("trace", 0.0),
        "gen.traced_cpu_us_per_op": cpu_per_op,
        "gen.unattributed_us_per_op": cpu_per_op - sum(per_op.values()),
        "gen.trace_overhead_share": (
            1.0 - traced.ops_per_s_ref() / plain.ops_per_s_ref()
        ),
    }


def generator_metrics(recorder: Recorder, workload) -> dict:
    """What the benchmark's own generator cost and how well it paced."""
    late, send = workload.late_s, workload.send_s
    attempted = max(1, workload.attempted)
    return {
        "gen.calib_ms": harness.quantile(recorder.calib_ms, 50),
        "gen.raw_ops_per_s": recorder.raw_ops_per_s(),
        "gen.late_p50_ms": harness.quantile(late, 50) * 1e3 if late else 0.0,
        "gen.late_p99_ms": harness.quantile(late, 99) * 1e3 if late else 0.0,
        "gen.send_p50_ms": harness.quantile(send, 50) * 1e3 if send else 0.0,
        "gen.failed_share": workload.failed / attempted,
        **recorder.tails(),
    }


class LiveLookupClosed(LiveWorkload):
    name = "live_lookup_closed"


class LiveLookupOpen(LiveWorkload):
    name = "live_lookup_open"
    rate = 3000.0
    cpu_bound = False
    slice_s = 0.25


class LiveTcpClosed(LiveWorkload):
    name = "live_tcp_closed"
    nodes = 16
    transport = "tcp"
    concurrency = 16


class LiveMapMixed(LiveWorkload):
    name = "live_map_mixed"
    write_share = 0.2


# -- sharded runtime -----------------------------------------------------------------


class LiveShardClosed(LiveWorkload):
    """Two worker processes; the data plane is driven by ``run_load``
    scattered to the workers, which originate from their own members."""

    name = "live_shard_closed"
    shards = 2
    #: requests per ``run_load`` call = one slice (~0.25 s here)
    count = 4096

    def __init__(self, seed: int, out_dir=None):
        super().__init__(seed, out_dir)
        self.parent_cpu_s = self.worker_cpu_s = 0.0

    def input_digest(self) -> str:
        # the workers draw their requests from these seeds, one per slice
        return harness.digest([self._slice_seed(k) for k in range(64)])

    def config(self) -> ClusterConfig:
        config = super().config()
        config.shards = self.shards
        return config

    def _slice_seed(self, index: int) -> int:
        return self.seed * 100003 + index

    def _tree_cpu_s(self) -> tuple:
        workers = sum(
            harness.process_cpu_s(w.process.pid) for w in self.cluster.workers
        )
        return time.process_time(), workers

    async def closed_slice(self, duration: float) -> tuple:
        index = self._cursor
        self._cursor = index + 1
        parent, workers = self._tree_cpu_s()
        report = await self.cluster.run_load(
            rate=0.0,
            count=self.count,
            seed=self._slice_seed(index),
            concurrency=self.concurrency,
        )
        parent_after, workers_after = self._tree_cpu_s()
        self.parent_cpu_s += parent_after - parent
        self.worker_cpu_s += workers_after - workers
        latencies = [ms / 1e3 for ms in report.latencies_ms]
        self.timeouts += report.errors - report.busy_errors - report.breaker_fastfails
        if report.errors:
            self.note(
                f"run_load slice {index}: {report.errors} errors "
                f"({report.busy_errors} busy, {report.breaker_fastfails} fast-failed)"
            )
        cpu = parent_after - parent + workers_after - workers
        return report.succeeded, report.wall_duration_s, cpu, latencies, report.errors

    async def _traced(self, seconds: float) -> dict:
        tracer = tracing.Tracer()
        tracing.install_shard_parent(tracer)
        recorder = Recorder(self.cpu_bound)
        try:
            await self.boot()
            tracer.enabled = True
            await self.warm_up()
            before = await self.cluster.counters()
            self.parent_cpu_s = self.worker_cpu_s = 0.0
            await self.timed(seconds / 2.0, recorder)
            after = await self.cluster.counters()
            sample = await self.parity_and_stretch()
            control = await self._control_plane(seconds / 8.0)
        finally:
            tracer.uninstall()
            await self.cluster.stop()
        self.dump_spans(tracer)
        counted = max(1, recorder.total_ops)
        transport = counters_delta(before, after, "transport")
        overload = counters_delta(before, after, "overload")
        sent = transport["peer_sent"] + transport["local_sent"]
        tree = self.parent_cpu_s + self.worker_cpu_s
        metrics = {
            "shard.cross_share": transport["peer_sent"] / sent,
            "shard.peer_frames_per_op": transport["peer_sent"] / counted,
            "shard.worker_cpu_us_per_op": (
                self.worker_cpu_s / counted * 1e6
                * harness.CALIB_REF_MS / harness.quantile(recorder.calib_ms, 50)
            ),
            "shard.parent_cpu_share": self.parent_cpu_s / tree,
            "transport.sent_per_op": sent / counted,
            "transport.dropped": float(transport["dropped"]),
            "transport.backpressure_drops": float(transport["backpressure_drops"]),
            "node.shed": float(overload["shed"]),
            "node.busy_retries": float(overload["busy_retries"]),
            "node.timeouts": float(self.timeouts),
            "node.breaker_opens": float(overload["breaker_opens"]),
            "routing.hops_per_op": sample["routing.hops_per_op"],
            "gen.trace_overhead_share": 0.0,
        }
        metrics.update(control)
        metrics.update(generator_metrics(recorder, self))
        return metrics

    async def _control_plane(self, seconds: float) -> dict:
        """Control-pipe cells: pings within and across shards, and a
        closed loop of lookups through ``ShardedCluster.lookup``."""
        cluster = self.cluster
        ids = cluster.node_ids
        shard_of = cluster.assignment
        home = ids[0]
        local = next(n for n in ids[1:] if shard_of[n] == shard_of[home])
        cross = next(n for n in ids if shard_of[n] != shard_of[home])

        async def ping_ms(dst):
            """Lower quartile of 64 round trips, in reference-box ms."""
            samples = []
            with harness.ReferenceTimer() as timer:
                for seq in range(64):
                    began = time.perf_counter()
                    await cluster.ping(home, dst, seq=seq)
                    samples.append(time.perf_counter() - began)
            return harness.quantile(samples, 25) * timer.scale * 1e3

        metrics = {
            "shard.ping_local_ms": await ping_ms(local),
            "shard.ping_cross_ms": await ping_ms(cross),
        }
        control = Recorder(cpu_bound=True)
        calibrated = Calibrated(control)
        calibrated.begin()
        ending = time.perf_counter() + seconds
        while time.perf_counter() < ending:
            ops, wall, cpu, latencies, failures = await LiveWorkload.closed_slice(
                self, 0.25
            )
            calibrated.record(ops, wall, cpu, latencies)
            self.attempted += ops + failures
            self.failed += failures
        metrics["shard.control_lookups_per_s"] = control.ops_per_s_ref()
        metrics["shard.control_p50_ms"] = control.latency(50)
        return metrics


# -- simulator -------------------------------------------------------------------------


def fixed_pairs(ids, count: int) -> list:
    rng = np.random.default_rng(STRETCH_SEED)
    return [
        tuple(int(x) for x in rng.choice(ids, size=2, replace=False))
        for _ in range(count)
    ]


def sim_stretch(overlay) -> dict:
    """``mean_stretch`` and hops over the fixed member-pair sample.

    Routing charges messages, so callers read ``network.stats`` first.
    """
    stretches, hops = [], 0
    for src, dst in fixed_pairs(np.array(overlay.node_ids), STRETCH_SAMPLE):
        result, stretch = overlay.route_between(src, dst)
        hops += result.hops
        if stretch is not None:
            stretches.append(stretch)
    return {
        "mean_stretch": float(np.mean(stretches)),
        "ecan.hops_per_route": hops / STRETCH_SAMPLE,
    }


class SimWorkload(Workload):
    slice_s = 0.05

    def new_overlay(self, overlay_seed: int):
        """Topology + prewarmed oracle + empty overlay."""
        network = make_network(SIM_NETWORK)
        overlay = TopologyAwareOverlay(
            network, OverlayParams(num_nodes=SIM_NODES, seed=overlay_seed)
        )
        self.prewarm_s = prewarm_s(network)
        self._rows_prewarmed = network.oracle.cache_info()["rows"]
        return overlay

    def timed_setup(self, setup) -> tuple:
        """``(setup(), its seconds on the reference box)``."""
        with harness.ReferenceTimer() as timer:
            made = setup()
        return made, timer.seconds

    def row_misses(self, overlay) -> int:
        """Oracle rows computed since :meth:`new_overlay` prewarmed them."""
        return overlay.network.oracle.cache_info()["rows"] - self._rows_prewarmed

    def verify(self, overlay) -> None:
        try:
            check_invariants(overlay)
        except AssertionError as exc:
            self.problems.append(f"check_invariants: {exc}")

    def sample(self, overlay) -> dict:
        """The fixed stretch sample, remembered as exact values."""
        self.exact.update(sim_stretch(overlay))
        return self.exact

    def measure(self, seconds: float) -> dict:
        return self.result(self._measure(seconds))

    def traced(self, seconds: float) -> dict:
        return self.result(self._traced(seconds))


class SimBuild(SimWorkload):
    """Incremental 1024-node builds; one operation is one join."""

    name = "sim_build"
    #: joins per slice
    chunk = 32

    def __init__(self, seed: int, out_dir=None):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng(seed)
        self.capacities = rng.uniform(0.5, 2.0, size=SIM_NODES)

    def input_digest(self) -> str:
        return harness.digest(self.capacities)

    def build(self, overlay, calibrated: Calibrated, tracer=None) -> None:
        capacities = self.capacities.tolist()
        for first in range(0, SIM_NODES, self.chunk):
            latencies = []
            with tracing.switched_on(tracer):
                cpu = time.process_time()
                began = time.perf_counter()
                start = began
                for capacity in capacities[first:first + self.chunk]:
                    overlay.add_node(capacity=capacity)
                    done = time.perf_counter()
                    latencies.append(done - start)
                    start = done
            calibrated.record(
                len(latencies), start - began, time.process_time() - cpu, latencies
            )
        self.attempted += SIM_NODES
        if len(overlay) != SIM_NODES:
            self.failed += SIM_NODES - len(overlay)

    def timed_builds(self, seconds: float, recorder: Recorder, tracer=None) -> tuple:
        """Whole builds until ``seconds`` have passed: ``(first overlay, setups)``."""
        calibrated = Calibrated(recorder)
        setups, first = [], None
        self.misses = 0
        began = time.perf_counter()
        overlay_seed = 0
        while overlay_seed == 0 or time.perf_counter() - began < seconds:
            overlay, setup = self.timed_setup(lambda: self.new_overlay(overlay_seed))
            setups.append(setup)
            calibrated.begin()
            self.build(overlay, calibrated, tracer)
            self.misses += self.row_misses(overlay)
            self.verify(overlay)
            if first is None:
                first = overlay
                self.exact["builder.messages_per_join"] = (
                    overlay.network.stats.total() / SIM_NODES
                )
            overlay_seed += 1
            # a finished overlay is garbage full of cycles: without this,
            # peak RSS depends on when the collector last happened to run
            del overlay
            gc.collect()
        return first, setups

    def _measure(self, seconds: float) -> dict:
        recorder = Recorder(self.cpu_bound)
        first, setups = self.timed_builds(seconds, recorder)
        while len(setups) < SETUPS:
            setups.append(self.timed_setup(lambda: self.new_overlay(len(setups)))[1])
        metrics = recorder.end_to_end()
        metrics["setup_s"] = float(np.median(setups))
        metrics["mean_stretch"] = self.sample(first)["mean_stretch"]
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        return metrics

    def _traced(self, seconds: float) -> dict:
        plain = Recorder(self.cpu_bound)
        self.timed_builds(seconds / 4.0, plain)
        tracer = tracing.Tracer()
        tracing.install_sim(tracer)
        traced = Recorder(self.cpu_bound)
        try:
            first, _ = self.timed_builds(seconds / 2.0, traced, tracer)
        finally:
            tracer.uninstall()
        self.dump_spans(tracer)
        per_op, cpu_per_op = reference_us_per_op(tracer, traced)
        per_join_ms = {layer: us / 1e3 for layer, us in per_op.items()}
        distance_calls = max(1.0, tracer.counts["oracle.distance"])
        metrics = {
            "proximity.measure_ms_per_join": per_join_ms.get("proximity", 0.0),
            "can.join_ms_per_join": per_join_ms.get("can", 0.0),
            "store.publish_ms_per_join": per_join_ms.get("store", 0.0),
            "ecan.build_table_ms_per_join": per_join_ms.get("ecan", 0.0),
            "builder.other_ms_per_join": per_join_ms.get("builder", 0.0),
            "builder.messages_per_join": self.exact["builder.messages_per_join"],
            "store.self_us_per_op": per_op.get("store", 0.0),
            "ecan.self_us_per_op": per_op.get("ecan", 0.0),
            "builder.self_us_per_op": per_op.get("builder", 0.0),
            "oracle.prewarm_s": self.prewarm_s,
            "oracle.row_hit_share": 1.0 - self.misses / distance_calls,
            **trace_cost_metrics(per_op, cpu_per_op, plain, traced),
        }
        metrics["ecan.hops_per_route"] = self.sample(first)["ecan.hops_per_route"]
        metrics.update(
            overlay_micro_cells(first, first.ecan, np.random.default_rng(self.seed))
        )
        metrics.update(generator_metrics(plain, self))
        return metrics


class SimRoute(SimWorkload):
    """Read-only traffic on one bulk-built overlay: 2/3 routes between
    seeded member pairs, 1/3 level-1 map lookups."""

    name = "sim_route"

    def __init__(self, seed: int, out_dir=None):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng(seed)
        first = rng.integers(0, SIM_NODES, size=REQUESTS)
        # a second member that is never the first
        self.pairs = np.stack(
            [first, (first + rng.integers(1, SIM_NODES, size=REQUESTS)) % SIM_NODES],
            axis=1,
        )
        self.cells = rng.integers(0, 2, size=(REQUESTS, 2))
        self._cursor = 0

    def input_digest(self) -> str:
        return harness.digest(self.pairs, self.cells)

    def setup(self) -> None:
        """Bulk-build the overlay up to the first successful route."""
        overlay = self.new_overlay(0)
        ids = overlay.build_bulk(SIM_NODES)
        overlay.route_between(ids[0], ids[-1])
        self.overlay = overlay
        pairs = self.pairs.tolist()
        regions = [Region(1, (int(a), int(b))) for a, b in self.cells]
        self._requests = [
            (ids[a], ids[b], region) for (a, b), region in zip(pairs, regions)
        ]

    def one_slice(self, duration: float) -> tuple:
        overlay = self.overlay
        route, lookup = overlay.route_between, overlay.store.lookup
        requests = self._requests
        latencies = []
        failures = 0
        index = self._cursor
        cpu = time.process_time()
        began = time.perf_counter()
        start = began
        deadline = began + duration
        while start < deadline:
            src, dst, region = requests[index % REQUESTS]
            if index % 3 < 2:
                result, _ = route(src, dst)
                ok = result.success and result.owner == dst
            else:
                ok = lookup(src, region).served_by is not None
            index += 1
            done = time.perf_counter()
            if ok:
                latencies.append(done - start)
            else:
                failures += 1
            start = done
        self._cursor = index
        return len(latencies), start - began, time.process_time() - cpu, latencies, failures

    def warm_up(self) -> None:
        ending = time.perf_counter() + WARMUP_S
        while time.perf_counter() < ending:
            self.one_slice(self.slice_s)

    def timed(self, seconds: float, recorder: Recorder, tracer=None) -> None:
        calibrated = Calibrated(recorder)
        calibrated.begin()
        ending = time.perf_counter() + seconds
        while time.perf_counter() < ending:
            with tracing.switched_on(tracer):
                ops, wall, cpu, latencies, failures = self.one_slice(self.slice_s)
            calibrated.record(ops, wall, cpu, latencies)
            self.attempted += ops + failures
            self.failed += failures

    def _measure(self, seconds: float) -> dict:
        setups = [self.timed_setup(self.setup)[1] for _ in range(SETUPS)]
        recorder = Recorder(self.cpu_bound)
        self.warm_up()
        self.timed(seconds, recorder)
        self.verify(self.overlay)
        metrics = recorder.end_to_end()
        metrics["setup_s"] = float(np.median(setups))
        metrics["mean_stretch"] = self.sample(self.overlay)["mean_stretch"]
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
        return metrics

    def _traced(self, seconds: float) -> dict:
        self.setup()
        plain = Recorder(self.cpu_bound)
        self.warm_up()
        self.timed(seconds / 4.0, plain)
        tracer = tracing.Tracer()
        tracing.install_sim(tracer)
        traced = Recorder(self.cpu_bound)
        try:
            self.timed(seconds / 2.0, traced, tracer)
        finally:
            tracer.uninstall()
        self.dump_spans(tracer)
        self.verify(self.overlay)
        per_op, cpu_per_op = reference_us_per_op(tracer, traced)
        lookups = tracer.calls["store.lookup"]
        metrics = {
            "ecan.self_us_per_op": per_op.get("ecan", 0.0),
            "store.self_us_per_op": per_op.get("store", 0.0),
            "builder.self_us_per_op": per_op.get("builder", 0.0),
            "store.records_per_lookup": tracer.counts["store.records"] / lookups,
            "store.widened_share": tracer.counts["store.widened"] / lookups,
            "oracle.prewarm_s": self.prewarm_s,
            "oracle.row_hit_share": 1.0
            - self.row_misses(self.overlay)
            / max(1.0, tracer.counts["oracle.distance"]),
            **trace_cost_metrics(per_op, cpu_per_op, plain, traced),
        }
        metrics["ecan.hops_per_route"] = self.sample(self.overlay)[
            "ecan.hops_per_route"
        ]
        metrics.update(
            overlay_micro_cells(
                self.overlay, self.overlay.ecan, np.random.default_rng(self.seed)
            )
        )
        metrics.update(generator_metrics(plain, self))
        return metrics


WORKLOADS = {
    cls.name: cls
    for cls in (
        LiveLookupClosed,
        LiveLookupOpen,
        LiveTcpClosed,
        LiveShardClosed,
        LiveMapMixed,
        SimBuild,
        SimRoute,
    )
}
