"""The live cluster harness: boot N actors, join over the wire, serve RPCs.

:class:`Cluster` owns one simulated physical :class:`Network` (the
latency ground truth and telemetry sink), one
:class:`TopologyAwareOverlay` (the Can/eCAN + soft-state stack the
actors wrap), a pluggable transport, and one
:class:`~repro.runtime.node.NodeProcess` per member.  Booting
replays the simulator's build loop *over the wire*: the first node is
seeded locally, every later member starts as an anonymous joiner
actor that sends a JOIN frame to the bootstrap node, whose actor
admits it (landmark measurement, CAN join, soft-state publication,
policy-driven neighbor selection -- the full topology-aware join) and
ACKs back the assigned node id and physical host.  Joins are awaited
sequentially, so membership, zones and tables are a pure function of
(config, seed) -- byte-identical to a synchronous
``TopologyAwareOverlay.build`` with the same parameters, which is
exactly what :meth:`verify_against_sim` checks.

RPCs (``route``, ``lookup``, ``lookup_map``, ``publish``, ``ping``)
run hop-by-hop over the transport; with latency shaping enabled the
end-to-end wall latency reproduces the transit-stub RTT matrix at the
configured time dilation.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.builder import TopologyAwareOverlay
from repro.core.config import NetworkParams, OverlayParams, make_network
from repro.core.reliability import CircuitOpenError, DeadlineTable
from repro.netsim.faults import Partition
from repro.overlay.zone import point_code
from repro.runtime.node import (
    NodeProcess,
    PeerBusy,
    Pump,
    RemoteError,
    RequestTimeout,
)
from repro.runtime.transport import TransportError, make_transport
from repro.runtime.wire import MsgType


class RoutingView:
    """The routing + soft-state surface an actor is allowed to touch.

    Actors used to reach into the cluster-global
    ``cluster.overlay.ecan`` for their forwarding decisions, which
    made the overlay state an implicit shared singleton -- impossible
    to replicate into shard workers.  Every cluster (single-process or
    one shard worker) now owns a ``RoutingView`` over *its* overlay
    instance, and :class:`~repro.runtime.node.NodeProcess` goes
    through it exclusively: in a sharded cluster each worker process
    rebuilds the same deterministic overlay from (config, seed) and
    wraps its private replica, so routing state is replicated into
    shards instead of shared across them.
    """

    __slots__ = ("overlay", "ecan", "store")

    def __init__(self, overlay):
        self.overlay = overlay
        self.ecan = overlay.ecan
        self.store = overlay.store

    @property
    def dims(self) -> int:
        return self.ecan.dims

    def next_hop(self, node_id: int, point, visited=None) -> tuple:
        """One forwarding decision (the fault-free sim ``route`` branch)."""
        return self.ecan.next_hop(node_id, point, visited=visited)

    def zone_center(self, node_id: int):
        return self.ecan.can.nodes[node_id].zone.center()

    def host_of(self, node_id: int) -> int:
        return int(self.ecan.can.nodes[node_id].host)


@dataclass
class ClusterConfig:
    """Everything a live cluster needs to boot deterministically."""

    nodes: int = 16
    network: NetworkParams = field(default_factory=NetworkParams)
    overlay: OverlayParams = field(default_factory=OverlayParams)
    #: "loopback" or "tcp"
    transport: str = "loopback"
    #: frame payload encoding: "packed" (struct layouts for the data
    #: plane -- ROUTE and every lookup/route/lookup_map/publish ACK;
    #: the control plane -- JOIN, HEARTBEAT, ERROR, BUSY -- stays
    #: JSON, see :mod:`repro.runtime.wire`) or "json" (everything)
    wire_encoding: str = "packed"
    #: wall seconds per simulated ms of one-way latency (0 = no shaping)
    latency_scale: float = 0.0
    request_timeout: float = 30.0
    #: wall seconds between live failure-detector rounds
    heartbeat_period: float = 0.25
    #: wall seconds one HEARTBEAT probe waits before counting as silence
    probe_timeout: float = 0.5
    #: optional :class:`~repro.core.reliability.RetryPolicy` resending
    #: timed-out/undeliverable requests (delays read as wall ms); each
    #: resend is charged to this cluster's ``network.telemetry``
    retry: object = None
    #: boot through the builder's batched bulk-join fast path instead
    #: of sequential wire JOINs (same membership/zones, tables may
    #: differ; for large soak clusters where O(N) wire joins dominate)
    bulk_boot: bool = False
    #: data-lane depth cap per actor (ROUTE/PUBLISH); an arrival at a
    #: full lane sheds the lane's head with a BUSY reply
    mailbox_cap: int = 1024
    #: consecutive BUSY/timeout failures that open a request origin's
    #: circuit breaker
    breaker_threshold: int = 8
    #: seconds an open breaker waits before its half-open probe
    breaker_reset_s: float = 1.0
    #: extra resend attempts granted to BUSY sheds (decorrelated
    #: jitter, separate from the loss-retry budget)
    busy_retries: int = 2
    #: read by nothing: kept, with its positivity check, only because
    #: the frozen ``live_*`` benchmark workloads construct
    #: ``ClusterConfig(..., rto_min_s=RTO_FLOOR_S)``; ROADMAP item 4's
    #: benchmark change deletes it
    rto_min_s: float = 0.25
    #: worker processes the membership shards across (1 = the classic
    #: single-process cluster; >1 boots a
    #: :class:`~repro.runtime.shard.ShardedCluster`, one event loop
    #: per worker, cross-shard frames over a TCP peering socket)
    shards: int = 1

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > self.nodes:
            raise ValueError(
                f"cannot split {self.nodes} nodes across {self.shards} shards"
            )
        for name in ("mailbox_cap", "breaker_threshold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in (
            "request_timeout",
            "rto_min_s",
            "heartbeat_period",
            "probe_timeout",
            "breaker_reset_s",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.latency_scale >= 0:
            raise ValueError("latency_scale must be >= 0")
        if self.busy_retries < 0:
            raise ValueError("busy_retries must be >= 0")
        if self.overlay.num_nodes != self.nodes:
            self.overlay = replace(self.overlay, num_nodes=self.nodes)


def retry_counts(events) -> dict:
    """Resend accounting read off an ``events`` map.

    The map is one process's, or the sum over shard workers that
    ``counters()`` returns.
    """
    return {
        "retries": int(events.get("retry", 0)),
        "backoff_ms": float(events.get("backoff_ms", 0.0)),
    }


#: how a request that reached the wire fails: the parity check counts
#: these as unanswered instead of raising
REQUEST_ERRORS = (
    RequestTimeout, RemoteError, PeerBusy, CircuitOpenError, TransportError,
)


class ClusterSurface:
    """What every live harness is, however many processes serve it.

    The single-process :class:`Cluster` and the multi-process
    :class:`~repro.runtime.shard.ShardedCluster` both own one
    deterministic overlay replica built from (config, seed), a crash
    ledger, and the same RPC names (``lookup`` / ``route`` /
    ``lookup_map`` / ``publish`` / ``ping`` / ``run_load`` /
    ``counters``, all async).  This base declares the state and the
    methods that do not depend on where the actors run; subclasses
    keep how an RPC reaches an actor, how a boot and a churn event
    spread, and how counters are gathered.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.network = make_network(config.network)
        self.overlay = TopologyAwareOverlay(self.network, config.overlay)
        #: the only overlay surface actors touch (every shard worker
        #: wraps its own replica)
        self.routing = RoutingView(self.overlay)
        #: node id -> NodeProcess served by *this* process, in join
        #: order (a sharded parent serves none: its workers do)
        self.actors: dict = {}
        #: crash-stopped node id -> physical host (corpses; the overlay
        #: still lists them until the failure detector repairs)
        self.crashed: dict = {}
        #: the armed :class:`~repro.runtime.recovery.RuntimeRecovery`,
        #: or None (see ``enable_recovery``)
        self.recovery = None
        #: request deadlines of every actor this process serves: one
        #: sweep timer on whichever loop is running when it is armed
        self.deadlines = DeadlineTable(
            clock=lambda: asyncio.get_running_loop().time(),
            call_later=lambda delay, callback: asyncio.get_running_loop().call_later(
                delay, callback
            ),
        )
        #: the one drain task of every actor this process serves
        self.pump = Pump()
        self._started = False

    # -- membership --------------------------------------------------------

    @property
    def _up(self) -> dict:
        """Members whose process is up, keyed by node id in join order."""
        return self.actors

    @property
    def node_ids(self) -> list:
        return list(self._up)

    def __len__(self) -> int:
        return len(self._up)

    def is_up(self, node_id: int) -> bool:
        """Is this member's process running (ground truth, not a verdict)?"""
        return node_id in self._up

    def shard_of(self, node_id: int) -> int:
        """The worker process serving ``node_id`` (always 0 in-process)."""
        return 0

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- churn -------------------------------------------------------------

    def _ensure_faults(self):
        """Arm a (possibly empty) injector over the network, lazily.

        Crash semantics -- the crashed-host ledger that
        :func:`~repro.core.recovery.check_invariants` and the store's
        copy-death accounting read -- live on ``network.faults``; live
        churn arms an empty plan on first use so fault-free runs keep
        the perfect-network fast path until the first crash.
        """
        if self.network.faults is None:
            self.network.arm_faults()
        return self.network.faults

    def _require_member(self, node_id: int) -> None:
        """KeyError unless ``node_id`` is a member on a running machine
        (judged from the replica, so every process agrees)."""
        if node_id in self.crashed or node_id not in self.overlay.ecan.can.nodes:
            raise KeyError(f"node {node_id} is not a cluster member")

    async def crash(self, node_id: int) -> dict:
        """Crash-stop a member's *machine* with no immediate repair.

        Crash semantics are host-level, matching the simulator's
        ``crash_node``: physical hosts are shared, so when the machine
        dies every member process it runs dies with it.  The actors
        die mid-flight (pending requests fail fast), the host stops
        answering probes and frames, and every map copy the victims
        hosted vanishes -- but the overlay still lists the corpses
        until the wire failure detector (``enable_recovery``) confirms
        the deaths and repairs zones, tables and replicas.

        Replica-safe: the bookkeeping is a pure function of the
        replica, so every process of a sharded cluster applies the
        same call and only stops (and reports ``runtime_crash`` for)
        the victims it serves itself.  Returns the victim list and
        copy-loss summary.
        """
        self._require_member(node_id)
        nodes = self.overlay.ecan.can.nodes
        host = int(nodes[node_id].host)
        victims = sorted(
            n
            for n, node in nodes.items()
            if int(node.host) == host and n not in self.crashed
        )
        self._ensure_faults().crash_host(host)
        salvageable = lost = 0
        for victim in victims:
            actor = self.actors.pop(victim, None)
            if actor is not None:
                await actor.stop()
            kept, gone = self.overlay.store.drop_hosted_by(victim)
            salvageable += len(kept)
            lost += len(gone)
            self.crashed[victim] = host
            if actor is not None:
                self.network.telemetry.count("runtime_crash")
        return {"victims": victims, "salvageable": salvageable, "lost": lost}

    async def leave(self, node_id: int) -> None:
        """Graceful departure: withdraw records, hand zones over, stop.

        Replica-safe like :meth:`crash`: only the process serving the
        member has an actor to stop.
        """
        self._require_member(node_id)
        actor = self.actors.pop(node_id, None)
        if actor is not None:
            await actor.stop()
        self.overlay.remove_node(node_id, graceful=True)

    def retry_counters(self) -> dict:
        """Backoffs charged to this process's network (request resends
        under ``config.retry`` and any sim-layer retry on the replica)."""
        return retry_counts(self.network.telemetry.events)

    # -- sim parity --------------------------------------------------------

    def _build(self, overlay) -> list:
        """Populate ``overlay`` the way ``config`` says replicas are
        built (bulk or incremental); returns the member ids."""
        build = overlay.build_bulk if self.config.bulk_boot else overlay.build
        return build(self.config.nodes)

    def build_reference_sim(self) -> TopologyAwareOverlay:
        """A fresh synchronous overlay from this cluster's (config, seed),
        built the way the cluster booted (bulk or incremental)."""
        network = make_network(self.config.network)
        sim = TopologyAwareOverlay(network, self.config.overlay)
        self._build(sim)
        return sim

    async def verify_against_sim(
        self, lookups: int = 256, routes: int = 64, seed: int = 0xC0FFEE
    ) -> dict:
        """Cross-validate the live cluster against the synchronous simulator.

        Builds an *independent* sim overlay with the same (config,
        seed), replays a seeded workload on both sides, and compares
        lookup owners and route endpoints.  Returns a summary dict;
        ``ok`` is True only if every comparison matched bit-for-bit --
        the same bar however many processes served the live side.  A
        live request that fails (timeout, error or BUSY reply, refusal)
        is a mismatch, also counted as ``unanswered``.
        """
        sim = self.build_reference_sim()
        rng = np.random.default_rng(seed)
        ids = np.array(self.node_ids)
        dims = self.routing.dims
        mismatches = unanswered = 0
        for i in range(lookups):
            src = int(ids[int(rng.integers(0, len(ids)))])
            point = tuple(float(x) for x in rng.random(dims))
            try:
                live = await self.lookup(src, point)
            except REQUEST_ERRORS:
                unanswered += 1
                continue
            sim_result = sim.ecan.route(src, point, category="parity_check")
            if not sim_result.success or live["owner"] != sim_result.owner:
                mismatches += 1
        for i in range(routes):
            src, dst = (int(x) for x in rng.choice(ids, size=2, replace=False))
            try:
                live = await self.route(src, dst)
            except REQUEST_ERRORS:
                unanswered += 1
                continue
            sim_dst = sim.ecan.can.nodes[dst]
            sim_result = sim.ecan.route(
                src, sim_dst.zone.center(), category="parity_check"
            )
            endpoint = sim_result.path[-1] if sim_result.success else None
            if live["path"][-1] != endpoint or live["owner"] != endpoint:
                mismatches += 1
        mismatches += unanswered
        return {
            "checked": lookups + routes,
            "lookups": lookups,
            "routes": routes,
            "mismatches": mismatches,
            "unanswered": unanswered,
            "ok": mismatches == 0,
        }


class Cluster(ClusterSurface):
    """N live overlay-node actors over one wire transport."""

    def __init__(self, config: ClusterConfig):
        super().__init__(config)
        self.transport = self._make_transport()
        self._rejoin_ids = itertools.count(1)

    def _make_transport(self):
        """Build this cluster's transport (shard workers wrap it)."""
        config = self.config
        return make_transport(
            config.transport,
            oracle=self.network.oracle,
            latency_scale=config.latency_scale,
            encoding=config.wire_encoding,
        )

    # -- membership --------------------------------------------------------

    @property
    def bootstrap(self) -> NodeProcess:
        return next(iter(self.actors.values()))

    def admit(self, capacity: float = 1.0) -> tuple:
        """Perform one topology-aware join (bootstrap-actor duty).

        Same call sequence as the simulator's build loop, so the k-th
        admission consumes exactly the k-th draw of every builder RNG
        stream.  Returns ``(node_id, host)``.
        """
        node_id = self.overlay.add_node(capacity=capacity)
        host = self.overlay.ecan.can.nodes[node_id].host
        self.network.telemetry.count("runtime_join")
        return node_id, int(host)

    async def start(self) -> "Cluster":
        """Boot the cluster: seed the first node, join the rest over the wire."""
        if self._started:
            return self
        self._started = True
        await self.transport.start()
        with self.network.telemetry.phase("runtime_boot"):
            if self.config.bulk_boot:
                await self.start_actors(self.overlay.build_bulk(self.config.nodes))
                return self
            node_id, host = self.admit()
            seed_actor = NodeProcess(self, node_id, host=host)
            await seed_actor.start()
            self.actors[node_id] = seed_actor
            for k in range(1, self.config.nodes):
                joiner = NodeProcess(self, f"joiner:{k}")
                await joiner.start()
                ack = await joiner.request(self.bootstrap.addr, MsgType.JOIN, {})
                await joiner.rebind(int(ack["node_id"]), host=int(ack["host"]))
                self.actors[joiner.addr] = joiner
        return self

    #: actor binds awaited concurrently per batch during a bulk boot
    BOOT_BATCH = 64

    async def start_actors(self, node_ids) -> None:
        """Bind actors for already-admitted members, batched.

        The post-bulk-boot handshake used to await one bind at a time;
        on the TCP transport every bind starts an ``asyncio`` server,
        so a 256-node boot paid 256 sequential server setups.  Batching
        keeps membership order (the actors dict is filled before any
        bind) while overlapping the socket work inside each batch.
        """
        batch = []
        for node_id in node_ids:
            actor = NodeProcess(self, node_id, host=self.routing.host_of(node_id))
            self.actors[node_id] = actor
            self.network.telemetry.count("runtime_join")
            batch.append(actor)
            if len(batch) >= self.BOOT_BATCH:
                await asyncio.gather(*(a.start() for a in batch))
                batch.clear()
        if batch:
            await asyncio.gather(*(a.start() for a in batch))

    async def stop(self) -> None:
        if self.recovery is not None:
            await self.recovery.stop()
            self.recovery = None
        for actor in list(self.actors.values()):
            await actor.stop()
        self.actors.clear()
        self.deadlines.clear()
        await self.transport.close()
        self._started = False

    def _actor(self, node_id: int) -> NodeProcess:
        actor = self.actors.get(node_id)
        if actor is None:
            raise KeyError(f"node {node_id} is not a cluster member")
        return actor

    # -- churn & self-healing ----------------------------------------------

    def _ensure_faults(self):
        """The network's injector, which the transport reads too: wire
        frames see the crashes and partitions the overlay bookkeeping
        does."""
        self.transport.faults = super()._ensure_faults()
        return self.transport.faults

    async def kill_fraction(self, fraction: float, seed: int = 0) -> list:
        """Crash ``fraction`` of the membership at once (never the
        bootstrap's machine).  Seed victims are drawn deterministically
        from ``seed``; each crash takes its whole host down, so the
        returned node-id list can run a little over ``fraction``."""
        rng = np.random.default_rng(seed)
        boot_host = int(self.bootstrap.host)
        pool = sorted(
            n for n, actor in self.actors.items() if int(actor.host) != boot_host
        )
        count = min(len(pool), max(1, int(round(fraction * len(self)))))
        picks = rng.choice(len(pool), size=count, replace=False)
        victims: list = []
        for victim in sorted(pool[int(i)] for i in picks):
            if victim in self.actors:  # not already dead via a co-hosted pick
                victims.extend((await self.crash(victim))["victims"])
        return sorted(victims)

    async def restart(self) -> int:
        """Start a fresh process that (re)joins over the wire.

        Crash-stop destroys the old identity for good, so a restart is
        a brand-new member admitted through the normal JOIN path --
        landmark measurement, CAN join, publication, table build.
        Returns the new node id.
        """
        joiner = NodeProcess(self, f"rejoin:{next(self._rejoin_ids)}")
        await joiner.start()
        ack = await joiner.request(self.bootstrap.addr, MsgType.JOIN, {})
        await joiner.rebind(int(ack["node_id"]), host=int(ack["host"]))
        self.actors[joiner.addr] = joiner
        return joiner.addr

    def partition(self, domains) -> None:
        """Sever ``domains`` from the rest of the topology, open-ended.

        Installs an active :class:`~repro.netsim.faults.Partition`
        window (``end = inf``) on the network's injector, so frames
        crossing the cut drop and the failure detector shields its
        verdicts against the severed side.  :meth:`heal_partition`
        ends it.
        """
        window = Partition(
            start=self.network.clock.now, end=math.inf, domains=tuple(domains)
        )
        faults = self._ensure_faults()
        faults.plan = replace(
            faults.plan, partitions=faults.plan.partitions + (window,)
        )

    def heal_partition(self) -> int:
        """End every open-ended partition; returns how many were healed.

        Live partitions have no scheduled end (the sim clock does not
        advance under the runtime), so after healing the caller should
        run ``recovery.reconcile()`` to re-probe shielded suspects.
        """
        faults = self._ensure_faults()
        keep = tuple(p for p in faults.plan.partitions if p.end != math.inf)
        healed = len(faults.plan.partitions) - len(keep)
        faults.plan = replace(faults.plan, partitions=keep)
        return healed

    async def enable_recovery(self, params=None):
        """Arm the wire-level SWIM loop + recovery stack (idempotent).

        Returns the running
        :class:`~repro.runtime.recovery.RuntimeRecovery`.
        """
        if self.recovery is None:
            from repro.runtime.recovery import RuntimeRecovery

            self.recovery = RuntimeRecovery(self, params, seed=0xFD)
            await self.recovery.start()
        return self.recovery

    def overload_counters(self) -> dict:
        """Cluster-wide overload-protection accounting.

        Every key but one is a process-lifetime telemetry count (or the
        transport's own backpressure tally), so it never decreases when
        the actor that earned it crashes or leaves;
        ``breakers_open_now`` is the one gauge, read off the breakers
        of the actors still alive.  Zeros are reported, not omitted.
        """
        events = self.network.telemetry.events
        return {
            "shed": int(events["runtime_shed"]),
            "busy_replies": int(events["runtime_busy_reply"]),
            "busy_retries": int(events["runtime_busy_retry"]),
            "crash_dropped": int(events["runtime_crash_dropped"]),
            "breaker_opens": int(events["runtime_breaker_open"]),
            "breaker_closes": int(events["runtime_breaker_close"]),
            "breaker_fastfails": int(events["runtime_breaker_fastfail"]),
            "breakers_open_now": sum(
                actor.breaker.state != actor.breaker.CLOSED
                for actor in self.actors.values()
            ),
            "backpressure_drops": self.transport.backpressure_drops,
        }

    async def counters(self) -> dict:
        """Cluster-wide counters: ``events`` / ``transport`` /
        ``overload`` sections of summable numbers (a sharded cluster
        adds them up across workers, over the control channel -- hence
        async)."""
        return {
            "events": self.network.telemetry.snapshot()["events"],
            "transport": self.transport.counters(),
            "overload": self.overload_counters(),
        }

    # -- RPCs --------------------------------------------------------------

    async def lookup(self, src_id: int, point) -> dict:
        """Key lookup: route ``point`` from ``src_id`` to its owner.

        Returns ``{"owner", "path", "hops"}`` from the final ACK.  A
        point the router cannot deliver (see
        :func:`~repro.overlay.zone.point_code`) raises ValueError here,
        before any frame is built.
        """
        point_code(point, self.routing.dims)
        result = await self._actor(src_id).rpc_route(point, op="lookup")
        self.network.telemetry.count("runtime_lookup")
        return result

    async def route(self, src_id: int, dst_id: int) -> dict:
        """Route from ``src_id`` to member ``dst_id``'s zone center."""
        center = self.routing.zone_center(dst_id)
        result = await self._actor(src_id).rpc_route(center, op="route")
        self.network.telemetry.count("runtime_route")
        return result

    async def lookup_map(self, querier_id: int, region) -> dict:
        """Soft-state map read: route to the serving node, read its shard.

        A region this overlay has not (see
        :func:`~repro.softstate.maps.check_region`) raises ValueError
        here, when its position is computed, before any frame is built.
        """
        store = self.routing.store
        record = store.registry[querier_id]
        position = store.position_of(record, region)
        actor = self._actor(querier_id)
        ack = await actor.request(
            actor.addr,
            MsgType.ROUTE,
            {
                "point": [float(x) for x in position],
                "path": [actor.addr],
                "op": "lookup",
                "querier": querier_id,
                "level": region.level,
                "cell": list(region.cell),
            },
        )
        self.network.telemetry.count("runtime_map_lookup")
        return ack

    async def publish(self, node_id: int) -> dict:
        """Ask ``node_id``'s actor to (re)publish its soft-state record."""
        actor = self._actor(node_id)
        return await actor.request(actor.addr, MsgType.PUBLISH, {})

    async def ping(self, src_id: int, dst_id: int, seq: int = 0) -> dict:
        """One heartbeat round-trip between two members."""
        return await self._actor(src_id).request(
            dst_id, MsgType.HEARTBEAT, {"seq": seq}
        )

    async def run_load(
        self,
        rate: float,
        count: int,
        seed: int = 0,
        op: str = "lookup",
        concurrency: int = 0,
    ):
        """Drive a load run against this cluster (method form of
        :func:`~repro.runtime.loadgen.run_load`, matching the sharded
        harness so callers need not care which one they boot)."""
        from repro.runtime.loadgen import run_load

        return await run_load(
            self, rate=rate, count=count, seed=seed, op=op,
            concurrency=concurrency,
        )


def make_cluster(config: ClusterConfig):
    """Build the right harness for ``config``.

    ``config.shards == 1`` keeps the classic single-process
    :class:`Cluster`; anything larger boots a multi-process
    :class:`~repro.runtime.shard.ShardedCluster` (imported lazily --
    the shard machinery pulls in :mod:`multiprocessing`).
    """
    if config.shards <= 1:
        return Cluster(config)
    from repro.runtime.shard import ShardedCluster

    return ShardedCluster(config)
