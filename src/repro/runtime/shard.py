"""Multi-process sharded cluster: one event loop per core.

A single asyncio loop caps the live runtime at whatever one core can
dispatch (~20k ops/s on the reference box).  :class:`ShardedCluster`
breaks that ceiling structurally: the membership is partitioned
across N worker *processes*, each running its own event loop over a
full :class:`~repro.runtime.cluster.RoutingView` replica, so the
per-hop forwarding work parallelizes across cores.

**Sharding is topology-aware**, exactly in the spirit of the paper:
members are grouped by the transit domain of their physical host
(:func:`shard_assignment`), so the topology-aware tessellation --
which places topologically-close nodes in nearby zones -- keeps most
greedy hops *intra-process*, on the in-memory fast path.  Only hops
that genuinely cross transit domains pay for a socket.

**State is replicated, not shared.**  Every worker rebuilds the
identical overlay from (config, seed) -- the same determinism the
sim-parity gate has always relied on -- and wraps its private replica
in a ``RoutingView``.  There is no shared mutable overlay state
between processes; membership changes (crash/leave injection) are
broadcast over the control channel and applied as the same
deterministic mutation on every replica.

**Three planes:**

* *data plane, intra-shard*: frames between co-sharded members go
  through the worker's inner transport (in-process loopback by
  default, per-node TCP when configured) -- unchanged semantics;
* *data plane, cross-shard*: each worker listens on one TCP *peering
  socket*; a frame for a remote member rides the existing wire v3
  encoding prefixed with a 4-byte destination node id
  (:class:`PeeringTransport`).  Batching is the TCP transport's:
  frames coalesce per destination shard and one callback per loop
  tick writes every shard's batch;
* *control plane*: one :mod:`multiprocessing` pipe per worker carries
  boot orchestration, RPCs (lookup/route/map reads for the parity
  check), load-generation commands, crash/leave injection and
  counter/telemetry aggregation.  A worker process dying surfaces as
  a typed :class:`ShardCrashed` on the next command -- never a hang.

The parity bar does not move: ``verify_against_sim`` on a sharded
cluster replays the identical seeded workload against an
independently built synchronous simulator and requires bit-identical
owners and endpoints, regardless of how many processes served it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

from repro.overlay.zone import point_code
from repro.runtime.cluster import Cluster, ClusterConfig, ClusterSurface
from repro.runtime.loadgen import LoadReport, run_load
from repro.runtime.transport import StreamTransport, Transport, TransportError
from repro.runtime.wire import ENVELOPE, Frame, encode_frame
from repro.softstate.maps import check_region


class ShardError(Exception):
    """A shard worker rejected or failed a control-channel command."""


class ShardCrashed(ShardError):
    """A shard worker process died (control pipe broken or EOF)."""


class NotSupportedError(ShardError, NotImplementedError):
    """A capability the sharded runtime does not provide yet.

    Raised instead of a bare ``NotImplementedError`` so callers (the
    management plane's ``/health``, harness-agnostic scripts) can
    branch on the *kind* of refusal: the feature exists on the
    single-process :class:`~repro.runtime.cluster.Cluster` and is
    merely not ported across shard workers yet.  Subclasses
    ``NotImplementedError`` so pre-existing ``except``/``raises``
    sites keep working.
    """


#: start method for worker processes: fork (POSIX) boots without
#: re-importing the scientific stack and inherits an installed uvloop
#: policy; platforms without it fall back to spawn
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def shard_assignment(network, hosts: dict, nshards: int) -> dict:
    """Partition members across shards, locality-first.

    ``hosts`` maps node id -> physical host.  Members are ordered by
    (transit domain, host, node id) and cut into ``nshards``
    contiguous, size-balanced slices, so co-domain (and a fortiori
    co-hosted) members land in the same worker wherever the balance
    allows -- the topology-aware tessellation then keeps most routing
    hops intra-process.  Deterministic: a pure function of the
    topology and the membership.
    """
    domain = network.topology.transit_domain
    ordered = sorted(
        hosts, key=lambda n: (int(domain[hosts[n]]), int(hosts[n]), int(n))
    )
    base, extra = divmod(len(ordered), nshards)
    assignment = {}
    cursor = 0
    for shard in range(nshards):
        size = base + (1 if shard < extra else 0)
        for node_id in ordered[cursor:cursor + size]:
            assignment[int(node_id)] = shard
        cursor += size
    return assignment


# -- cross-shard peering -----------------------------------------------------

class PeeringTransport(StreamTransport):
    """Hybrid shard transport: local fast path + one TCP link per peer shard.

    Frames between co-sharded members delegate to the worker's inner
    transport (loopback or per-node TCP) with unchanged semantics.  A
    frame for a member of another shard is encoded once (wire v3,
    untouched), prefixed with its 4-byte destination node id, and
    coalesced into that shard's outbox -- the batched stream links of
    :class:`~repro.runtime.transport.StreamTransport`, keyed by shard.
    The receiving worker's single peering server demultiplexes by the
    envelope id onto its local handlers.
    """

    kind = "peering"

    def __init__(
        self,
        shard_id: int,
        shard_of: dict,
        inner: Transport,
    ):
        super().__init__(encoding=inner.encoding)
        self.shard_id = shard_id
        #: node id -> owning shard (string joiner addrs are never
        #: sharded: anything unknown is treated as local)
        self.shard_of = shard_of
        self.inner = inner
        #: this worker's peering port; :attr:`endpoints` maps every
        #: shard id to its peering endpoint once the parent has them all
        self.port = None
        self._local: dict = {}
        #: peered frames that arrived for an unbound (dead?) member
        self.misrouted = 0
        self.peer_sent = 0
        self.peer_delivered = 0

    async def start(self) -> None:
        await self.inner.start()
        self.port = await self._listen(self.shard_id, self._route, envelope=True)

    async def bind(self, addr, handler, host: int = None) -> None:
        self._local[addr] = handler
        await self.inner.bind(addr, handler, host=host)

    async def unbind(self, addr) -> None:
        self._local.pop(addr, None)
        await self.inner.unbind(addr)

    async def send(self, src, dst, frame: Frame) -> bool:
        if self._closed:
            raise TransportError("transport is closed")
        shard = self.shard_of.get(dst, self.shard_id)
        if shard == self.shard_id:
            return await self.inner.send(src, dst, frame)
        self.sent += 1
        self.peer_sent += 1
        return self._enqueue(
            shard, ENVELOPE.pack(dst) + encode_frame(frame, packed=self._packed)
        )

    def _route(self, envelope):
        """Hand one peered ``(dst, frame)`` to the member it names."""
        dst, frame = envelope
        handler = self._local.get(dst)
        if handler is None:
            # a crashed/unbound member: the frame drops and the origin's
            # request times out, exactly like a frame to a dead host on
            # the flat transports
            self.misrouted += 1
            return None
        self.peer_delivered += 1
        self.delivered += 1
        return handler(frame)

    def counters(self) -> dict:
        """Peering + inner traffic accounting for aggregation."""
        return {
            "peer_sent": self.peer_sent,
            "peer_delivered": self.peer_delivered,
            "peer_misrouted": self.misrouted,
            "local_sent": self.inner.sent,
            "local_delivered": self.inner.delivered,
            "dropped": self.dropped + self.inner.dropped,
            "backpressure_drops": self.backpressure_drops,
        }

    async def close(self) -> None:
        await super().close()
        await self.inner.close()


# -- the worker process ------------------------------------------------------


class _WorkerCluster(Cluster):
    """One shard: a full deterministic replica, actors for owned nodes only."""

    #: the methods the parent may invoke over the control pipe, by name
    CONTROL_OPS = frozenset(
        {
            "peers", "lookup", "route", "lookup_map", "publish", "ping",
            "run_load", "counters", "crash", "leave",
        }
    )

    def __init__(self, config: ClusterConfig, shard_id: int, assignment: dict):
        self.shard_id = shard_id
        self.assignment = assignment
        super().__init__(config)

    def _make_transport(self):
        return PeeringTransport(
            self.shard_id, self.assignment, super()._make_transport()
        )

    async def start(self) -> "Cluster":
        if self._started:
            return self
        self._started = True
        await self.transport.start()
        with self.network.telemetry.phase("runtime_boot"):
            owned = [
                n
                for n in self._build(self.overlay)
                if self.assignment[int(n)] == self.shard_id
            ]
            await self.start_actors(owned)
        return self

    async def control(self, op: str, *args):
        """Run one control-pipe command: an allow-listed method, by name."""
        if op not in self.CONTROL_OPS:
            raise ShardError(f"unknown control op {op!r}")
        return await getattr(self, op)(*args)

    async def peers(self, endpoints: dict) -> None:
        """Learn every shard's peering endpoint (end of the boot handshake)."""
        self.transport.endpoints.update(endpoints)

    async def run_load(self, rate, count, seed, op, concurrency) -> LoadReport:
        """This shard's slice of a scattered load run: requests
        originate from owned members only."""
        return await run_load(
            self, rate=rate, count=count, seed=seed, op=op,
            concurrency=concurrency, sources=list(self.actors),
        )


async def _worker(config, shard_id, assignment, conn) -> None:
    cluster = _WorkerCluster(config, shard_id, assignment)
    began = time.perf_counter()
    await cluster.start()
    conn.send(
        (
            "ready",
            shard_id,
            cluster.transport.port,
            time.perf_counter() - began,
            len(cluster.actors),
        )
    )
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                # the blocking pipe read rides an executor thread so the
                # loop keeps serving peering traffic between commands
                msg = await loop.run_in_executor(None, conn.recv)
            except EOFError:
                break  # parent is gone; shut down quietly
            if msg[0] == "stop":
                break
            try:
                result = await cluster.control(*msg)
            except Exception as exc:
                conn.send(("error", repr(exc)))
            else:
                conn.send(("ok", result))
    finally:
        await cluster.stop()


def _worker_main(config, shard_id, assignment, conn) -> None:
    """Worker process entry point: one event loop, then a clean exit."""
    try:
        asyncio.run(_worker(config, shard_id, assignment, conn))
        try:
            conn.send(("bye", shard_id))
        except (OSError, ValueError, BrokenPipeError):
            pass
    except BaseException as exc:  # surface boot/teardown failures
        try:
            conn.send(("fatal", repr(exc)))
        except (OSError, ValueError, BrokenPipeError):
            pass
    finally:
        conn.close()


# -- the parent harness ------------------------------------------------------


class _WorkerHandle:
    """Parent-side bookkeeping for one shard worker."""

    __slots__ = ("shard_id", "process", "conn", "lock", "boot_s", "owned")

    def __init__(self, shard_id, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.lock = asyncio.Lock()
        self.boot_s = 0.0
        self.owned = 0

    @property
    def dead(self) -> bool:
        return self.process.exitcode is not None


class ShardedCluster(ClusterSurface):
    """N overlay members sharded across worker processes.

    The :class:`~repro.runtime.cluster.ClusterSurface` over a control
    channel: every RPC is forwarded to the worker serving its origin
    member, churn is broadcast so every replica applies the same
    mutation, and counters are summed across workers.  The parent
    keeps its own replica for zone geometry and shard routing but
    serves no data-plane traffic.
    """

    def __init__(self, config: ClusterConfig):
        if config.latency_scale:
            raise ValueError(
                "latency shaping is not supported across shards yet "
                "(use shards=1 for shaped runs)"
            )
        super().__init__(config)
        self.workers: list = []
        #: node id -> owning shard for every member whose process is
        #: up, set at boot
        self.assignment: dict = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def _up(self) -> dict:
        return self.assignment

    def shard_of(self, node_id: int) -> int:
        return self.assignment.get(node_id, 0)

    @property
    def shards(self) -> int:
        return self.config.shards

    async def start(self) -> "ShardedCluster":
        if self._started:
            return self
        self._started = True
        config = self.config
        with self.network.telemetry.phase("runtime_boot"):
            members = self._build(self.overlay)
            hosts = {int(n): self.routing.host_of(n) for n in members}
            self.assignment = shard_assignment(
                self.network, hosts, config.shards
            )
            context = multiprocessing.get_context(_START_METHOD)
            for shard_id in range(config.shards):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(config, shard_id, self.assignment, child_conn),
                    name=f"repro-shard-{shard_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.workers.append(
                    _WorkerHandle(shard_id, process, parent_conn)
                )
            ports = {}
            for worker in self.workers:
                msg = await self._recv(worker)
                if msg[0] != "ready":
                    raise ShardError(
                        f"shard {worker.shard_id} failed to boot: {msg!r}"
                    )
                _, shard_id, port, boot_s, owned = msg
                ports[shard_id] = ("127.0.0.1", int(port))
                worker.boot_s = float(boot_s)
                worker.owned = int(owned)
            await self._broadcast(("peers", ports))
        return self

    async def stop(self) -> None:
        for worker in self.workers:
            if worker.dead:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                continue
        loop = asyncio.get_running_loop()
        for worker in self.workers:
            await loop.run_in_executor(None, worker.process.join, 10.0)
            if worker.process.exitcode is None:
                worker.process.terminate()
                await loop.run_in_executor(None, worker.process.join, 5.0)
            worker.conn.close()
        self.workers.clear()
        self._started = False

    # -- control channel ---------------------------------------------------

    def _owner(self, node_id: int) -> _WorkerHandle:
        shard = self.assignment.get(node_id)
        if shard is None:
            raise KeyError(f"node {node_id} is not a cluster member")
        return self.workers[shard]

    async def _recv(self, worker: _WorkerHandle):
        loop = asyncio.get_running_loop()
        try:
            msg = await loop.run_in_executor(None, worker.conn.recv)
        except (EOFError, OSError) as exc:
            raise ShardCrashed(
                f"shard {worker.shard_id} worker died "
                f"(exitcode {worker.process.exitcode})"
            ) from exc
        if msg[0] == "fatal":
            raise ShardError(f"shard {worker.shard_id} failed: {msg[1]}")
        return msg

    async def _call(self, worker: _WorkerHandle, msg: tuple):
        """One command round-trip; a dead worker raises, never hangs.

        ``msg`` is ``(op, *args)`` for :meth:`_WorkerCluster.control`.
        """
        async with worker.lock:
            if worker.dead:
                raise ShardCrashed(
                    f"shard {worker.shard_id} worker died "
                    f"(exitcode {worker.process.exitcode})"
                )
            try:
                worker.conn.send(msg)
            except (OSError, ValueError, BrokenPipeError) as exc:
                raise ShardCrashed(
                    f"shard {worker.shard_id} control pipe broken"
                ) from exc
            reply = await self._recv(worker)
        if reply[0] == "error":
            raise ShardError(f"shard {worker.shard_id}: {reply[1]}")
        return reply[1]

    async def _broadcast(self, msg: tuple) -> list:
        """The same command on every worker; replies in shard order."""
        return await asyncio.gather(*(self._call(w, msg) for w in self.workers))

    # -- RPCs --------------------------------------------------------------

    async def lookup(self, src_id: int, point) -> dict:
        point_code(point, self.routing.dims)  # ValueError before the pipe
        return await self._call(
            self._owner(src_id),
            ("lookup", int(src_id), [float(x) for x in point]),
        )

    async def route(self, src_id: int, dst_id: int) -> dict:
        if dst_id not in self.assignment:
            raise KeyError(f"node {dst_id} is not a cluster member")
        return await self._call(
            self._owner(src_id), ("route", int(src_id), int(dst_id))
        )

    async def lookup_map(self, querier_id: int, region) -> dict:
        check_region(region, self.routing.dims)  # ValueError before the pipe
        return await self._call(
            self._owner(querier_id), ("lookup_map", int(querier_id), region)
        )

    async def publish(self, node_id: int) -> dict:
        return await self._call(self._owner(node_id), ("publish", int(node_id)))

    async def ping(self, src_id: int, dst_id: int, seq: int = 0) -> dict:
        return await self._call(
            self._owner(src_id), ("ping", int(src_id), int(dst_id), int(seq))
        )

    # -- load --------------------------------------------------------------

    async def run_load(
        self,
        rate: float,
        count: int,
        seed: int = 0,
        op: str = "lookup",
        concurrency: int = 0,
    ) -> LoadReport:
        """Scatter a load run across every shard, gather one report.

        Each worker drives its slice with sources drawn from its own
        members (targets stay cluster-wide, so cross-shard traffic is
        whatever the tessellation dictates), all shards running
        concurrently on their own cores.  Counts, rates and the
        closed-loop budget split evenly; per-shard seeds are derived
        from ``seed`` so the workload stays a pure function of it.
        """
        shards = len(self.workers)
        base, extra = divmod(count, shards)
        closed = concurrency > 0
        conc_base, conc_extra = divmod(concurrency, shards) if closed else (0, 0)
        calls = []
        for i, worker in enumerate(self.workers):
            slice_count = base + (1 if i < extra else 0)
            if slice_count == 0:
                continue
            slice_concurrency = (
                max(1, conc_base + (1 if i < conc_extra else 0)) if closed else 0
            )
            calls.append(
                self._call(
                    worker,
                    (
                        "run_load", rate / shards if rate else 0.0, slice_count,
                        seed + 7919 * i, op, slice_concurrency,
                    ),
                )
            )
        slices = await asyncio.gather(*calls)
        report = LoadReport(
            ops=sum(s.ops for s in slices),
            errors=sum(s.errors for s in slices),
            offered_rate=0.0 if closed else float(rate),
            mode="closed" if closed else "open",
            concurrency=sum(s.concurrency for s in slices),
        )
        for s in slices:
            report.latencies_ms.extend(s.latencies_ms)
            report.error_latencies_ms.extend(s.error_latencies_ms)
        report.wall_duration_s = max(s.wall_duration_s for s in slices)
        report.retries = sum(s.retries for s in slices)
        report.backoff_ms = sum(s.backoff_ms for s in slices)
        report.busy_errors = sum(s.busy_errors for s in slices)
        report.breaker_fastfails = sum(s.breaker_fastfails for s in slices)
        report.shed = sum(s.shed for s in slices)
        report.loop = slices[0].loop if slices else ""
        return report

    # -- aggregation -------------------------------------------------------

    async def counters(self) -> dict:
        """Cluster-wide counters, summed across every shard replica."""
        per_shard = await self._broadcast(("counters",))
        merged = {"events": {}, "transport": {}, "overload": {}}
        for shard in per_shard:
            for section, values in shard.items():
                bucket = merged.setdefault(section, {})
                for key, value in values.items():
                    if isinstance(value, (int, float)):
                        bucket[key] = bucket.get(key, 0) + value
        merged["per_shard"] = per_shard
        return merged

    def boot_report(self) -> dict:
        """Per-shard boot walls + membership split (bench bookkeeping)."""
        return {
            "wall_boot_s_per_shard": [w.boot_s for w in self.workers],
            "owned_per_shard": [w.owned for w in self.workers],
        }

    # -- churn -------------------------------------------------------------

    async def crash(self, node_id: int) -> dict:
        """Crash-stop a member's machine on every replica (broadcast)."""
        self._require_member(node_id)  # before any replica is touched
        await self._broadcast(("crash", int(node_id)))
        summary = await super().crash(node_id)
        for victim in summary["victims"]:
            self.assignment.pop(victim, None)
        return summary

    async def leave(self, node_id: int) -> None:
        """Graceful departure, broadcast to every replica."""
        self._require_member(node_id)
        await self._broadcast(("leave", int(node_id)))
        await super().leave(node_id)
        self.assignment.pop(node_id, None)

    async def enable_recovery(self, params=None):
        """Unsupported: raises a typed :class:`NotSupportedError`.

        The wire-level SWIM loop would have to probe across worker
        processes; porting it onto the TCP peering plane is the
        tracked next step (ROADMAP, DESIGN.md §13).  Until then
        :attr:`recovery` stays ``None``, crash/leave injection flows
        over the control channel, and the management plane reports
        ``recovery: unavailable (sharded)`` in ``/health`` instead of
        surfacing this as a server error.
        """
        raise NotSupportedError(
            "the wire-level SWIM recovery loop does not span shard "
            "workers yet (port it onto the TCP peering plane -- see "
            "DESIGN.md §13 and the ROADMAP item); crash/leave "
            "injection flows over the control channel instead"
        )
