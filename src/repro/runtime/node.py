"""One overlay member as an async actor.

A :class:`NodeProcess` owns an address on the transport, a two-lane
mailbox, and (once joined) an overlay node id.  Frames dispatch one
at a time in mailbox order, so all overlay-state access from a node
is serialized -- the actor model's usual guarantee.  Responses
(ACK / ERROR / BUSY) bypass the mailbox and resolve the pending
request future directly: a node awaiting a reply never deadlocks
behind its own queue.

Overload protection (PR 8) splits the mailbox into two lanes:

* the **control lane** (HEARTBEAT, JOIN) is unbounded and drained
  first, so liveness probes and membership traffic keep flowing no
  matter how much data traffic piles up -- an overloaded node must
  stay distinguishable from a crashed one;
* the **data lane** (ROUTE, PUBLISH) is capped at
  ``ClusterConfig.mailbox_cap``.  A frame that would overflow it is
  *shed*: dropped, counted (``runtime_shed``), and answered with a
  BUSY frame to the request origin so the client backs off instead
  of waiting out a timeout.  The shed frame is the head of the queue:
  the arrival is admitted, so the freshest work survives.

Every delivery -- a self-addressed request, a loopback hop, a frame
off a socket -- enqueues and kicks the process's one :class:`Pump`
(``cluster.pump``): a single task that serves every kicked actor in
turn, at most :attr:`NodeProcess.YIELD_EVERY` frames per turn, and
yields to the event loop that often.  So floods queue in the *lanes*
(where the cap applies), heartbeats interleave with
them, and the interpreter stack is as deep at the last hop of a route
as at the first.  One pump serves the whole process, so **a handler
that has to wait spawns, it never suspends the drain**: a SWIM witness
relaying a probe hands the wait to a task the actor owns and replies
when it settles.  The transport's side of this is
:meth:`NodeProcess.ingress`, a plain call that never blocks and returns
what the delivering side owes it (a shed's BUSY send) or ``None``;
:meth:`NodeProcess.on_frame` is its awaited form.

Client-side reaction lives in :meth:`NodeProcess.request`: BUSY
replies retry on a decorrelated-jitter schedule, and the origin's one
:class:`~repro.core.reliability.CircuitBreaker` fast-fails its data
requests locally after ``breaker_threshold`` consecutive BUSY/timeout
failures.  Every data request is a whole route its origin addresses to
itself, so there is no per-peer state to keep: a request waits the
caller's ``timeout`` or ``config.request_timeout``.  Enforcing it costs
a request one entry in the process-wide
:class:`~repro.core.reliability.DeadlineTable` (``cluster.deadlines``):
register, await the bare reply future, deregister -- one shared sweep
timer fails the overdue ones.

Routing is hop-by-hop over the wire: each actor makes exactly one
forwarding decision (:meth:`EcanOverlay.next_hop`, the fault-free
branch of the simulator's ``route``) and sends the ROUTE frame to the
chosen peer; the final owner replies straight to the origin.  The
wire therefore carries the same hop sequence the synchronous
simulator would produce for the same tessellation, which is what the
cluster's sim-parity check relies on.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections import deque

from repro.core.reliability import (
    CircuitBreaker,
    CircuitOpenError,
    DecorrelatedJitter,
)
from repro.overlay.ecan import MAX_HOPS
from repro.runtime.transport import TransportError
from repro.runtime.wire import Frame, MsgType
from repro.softstate.maps import Region


#: kind -> kind.name (enum ``.name`` is a descriptor; skip it per frame)
_KIND_NAME = {member: member.name for member in MsgType}

#: never shed, drained before any data frame
_CONTROL_KINDS = frozenset({MsgType.HEARTBEAT, MsgType.JOIN})

#: capped lane; sheds answer BUSY to the request origin
_DATA_KINDS = frozenset({MsgType.ROUTE, MsgType.PUBLISH})


class RemoteError(Exception):
    """A peer answered with an ERROR frame."""


class RequestTimeout(Exception):
    """No reply arrived within the request deadline."""


class PeerBusy(Exception):
    """A peer shed the request from a full data lane (BUSY frame)."""


class Pump:
    """The one drain task of a process: every kicked actor, in turn.

    A turn serves at most what is left of a ``YIELD_EVERY``-frame
    budget, an actor still holding frames goes back behind the others,
    and the task yields to the loop each time the budget is spent: so
    deliveries (heartbeats!) interleave with a flood on any actor.
    """

    def __init__(self):
        #: kicked actors awaiting their turn, each queued at most once
        self.ready: deque = deque()
        self._task = None

    def kick(self, actor) -> None:
        """Queue ``actor`` (once) and ensure the pump task is alive."""
        if actor._queued:
            return
        actor._queued = True
        self.ready.append(actor)
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        ready = self.ready
        budget = NodeProcess.YIELD_EVERY
        while ready:
            actor = ready.popleft()
            actor._queued = False
            budget -= await actor._drain(budget)
            if actor.control_lane or actor.data_lane:
                self.kick(actor)  # to the tail: the others go first
            if budget <= 0:
                # deliveries land here; their control frames go first
                await asyncio.sleep(0)
                budget = NodeProcess.YIELD_EVERY


class NodeProcess:
    """An async overlay-node actor speaking the wire protocol."""

    def __init__(self, cluster, addr, host: int = None):
        self.cluster = cluster
        #: transport address; a temporary string while joining, the
        #: overlay node id (int) once a member
        self.addr = addr
        self.host = host
        #: HEARTBEAT/JOIN frames; unbounded, drained first
        self.control_lane: deque = deque()
        #: ROUTE/PUBLISH frames; capped at config.mailbox_cap
        self.data_lane: deque = deque()
        #: request_id -> Future awaiting an ACK/ERROR/BUSY
        self.pending: dict = {}
        self._req_ids = itertools.count(1)
        #: waiting for a turn on ``cluster.pump`` (the pump's flag)
        self._queued = False
        #: relayed SWIM probes in flight (a handler that waits spawns)
        self._relays: set = set()
        self._stopped = True
        #: frames this actor processed, by kind name (diagnostics)
        self.handled: dict = {}
        #: draws the BUSY-retry jitter: seeded, so the resend timing of
        #: a run is reproducible from (overlay seed, first address)
        self._jitter_rng = random.Random(f"{cluster.config.overlay.seed}:{addr}")
        #: guards this origin's data requests, on the loop's clock like
        #: every other time the request path reads
        self.breaker = CircuitBreaker(
            threshold=cluster.config.breaker_threshold,
            reset_timeout_s=cluster.config.breaker_reset_s,
            clock=asyncio.get_running_loop().time,
        )

    @property
    def node_id(self):
        """Overlay node id (None until the join completes)."""
        return self.addr if isinstance(self.addr, int) else None

    @property
    def transport(self):
        return self.cluster.transport

    @property
    def mailbox_depth(self) -> int:
        """Total queued frames across both lanes (diagnostics)."""
        return len(self.control_lane) + len(self.data_lane)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._stopped = False
        await self.transport.bind(self.addr, self.ingress, host=self.host)

    async def stop(self) -> None:
        # an in-flight drain (on the pump) halts before its next
        # dispatch; queued frames drop -- visibly: each cleared frame
        # counts as runtime_crash_dropped so a crash can never silently
        # eat queued work
        self._stopped = True
        dropped = len(self.control_lane) + len(self.data_lane)
        if dropped:
            self.cluster.network.telemetry.count("runtime_crash_dropped", dropped)
        self.control_lane.clear()
        self.data_lane.clear()
        # fail pending requests *before* the unbind await: callers
        # learn of the crash immediately instead of racing the event
        # loop until their timeout.  Failing (not cancelling) keeps a
        # CancelledError -- a BaseException -- from tearing through an
        # awaiting load generator's error handling.
        pending = list(self.pending.values())
        self.pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    TransportError(f"node {self.addr!r} stopped")
                )
        # relayed probes die with their witness instead of reporting
        # the target silent on the strength of the futures just failed
        for task in self._relays:
            task.cancel()
        await self.transport.unbind(self.addr)
        await asyncio.gather(*self._relays, return_exceptions=True)

    async def rebind(self, addr, host: int = None) -> None:
        """Adopt a new address (temporary joiner -> member node id)."""
        await self.transport.unbind(self.addr)
        self.addr = addr
        if host is not None:
            self.host = host
        await self.transport.bind(self.addr, self.ingress, host=self.host)

    # -- frame plumbing ----------------------------------------------------

    #: frames the pump serves between two yields to the event loop,
    #: and so the most one actor is served in a turn
    YIELD_EVERY = 32

    async def on_frame(self, frame: Frame) -> None:
        """:meth:`ingress`, awaited: for self-sends, tests and tracers."""
        owed = self.ingress(frame)
        if owed is not None:
            await owed

    def ingress(self, frame: Frame):
        """Transport delivery callback: never blocks, may be owed an await."""
        kind = frame.kind
        if kind is MsgType.ACK or kind is MsgType.ERROR or kind is MsgType.BUSY:
            future = self.pending.pop(frame.request_id, None)
            if future is not None and not future.done():
                if kind is MsgType.ACK:
                    future.set_result(frame.payload)
                elif kind is MsgType.BUSY:
                    future.set_exception(
                        PeerBusy(
                            f"peer {frame.payload.get('from')!r} shed "
                            f"{frame.payload.get('shed', 'request')}"
                        )
                    )
                else:
                    future.set_exception(
                        RemoteError(frame.payload.get("error", "remote error"))
                    )
            return None
        if self._stopped:
            return None  # the actor is gone; arrivals drop on the floor
        owed = None
        if kind in _CONTROL_KINDS:
            self.control_lane.append(frame)
        else:
            lane = self.data_lane
            if len(lane) >= self.cluster.config.mailbox_cap:
                # admit the arrival, shed the head: under sustained
                # overload the freshest work is the likeliest to still
                # have a waiting client
                owed = self._shed(lane.popleft())
            lane.append(frame)
        # decoupled from the arrival stack: floods queue in the *lanes*
        # (where the cap applies), not the ready queue
        self.cluster.pump.kick(self)
        return owed

    async def _shed(self, frame: Frame) -> None:
        """Drop ``frame`` from a full data lane and tell its origin."""
        self.cluster.network.telemetry.count("runtime_shed")
        src = frame.payload.get("src")
        if src is not None:
            await self.transport.send(
                self.addr,
                src,
                frame.reply(
                    {"from": self.addr, "shed": _KIND_NAME[frame.kind]},
                    kind=MsgType.BUSY,
                ),
            )

    #: dispatch-error reprs kept per actor before truncation
    MAX_ERROR_REPRS = 16

    async def _drain(self, quantum: int) -> int:
        """Serve up to ``quantum`` frames, control lane first; returns
        how many.  :meth:`Pump._run` is the one caller."""
        processed = 0
        while not self._stopped and processed != quantum:
            if self.control_lane:
                frame = self.control_lane.popleft()
            elif self.data_lane:
                frame = self.data_lane.popleft()
            else:
                break
            name = _KIND_NAME[frame.kind]
            self.handled[name] = self.handled.get(name, 0) + 1
            try:
                await self._dispatch(frame)
            except Exception as exc:  # answer rather than kill the actor
                # a srcless frame has nobody to bounce the ERROR to,
                # so without this accounting the failure would vanish
                # until the requester's timeout: count every dispatch
                # error and keep the repr visible in the diagnostics
                self.cluster.network.telemetry.count("runtime_dispatch_error")
                errors = self.handled.setdefault("dispatch_errors", [])
                if len(errors) < self.MAX_ERROR_REPRS:
                    errors.append(f"{name}: {exc!r}")
                src = frame.payload.get("src")
                if src is not None:
                    await self.transport.send(
                        self.addr,
                        src,
                        frame.reply({"error": repr(exc)}, kind=MsgType.ERROR),
                    )
            processed += 1
        return processed

    # -- client side -------------------------------------------------------

    async def request(
        self, dst, kind: MsgType, payload: dict, timeout=None, retry=None
    ) -> dict:
        """Send one frame and await the correlated ACK payload.

        ``retry`` selects the resend policy: ``None`` uses the
        cluster-wide :attr:`ClusterConfig.retry` (no resend when that
        is unset too), ``False`` forces a single attempt, and a
        :class:`~repro.core.reliability.RetryPolicy` overrides both.
        Lost or unanswered attempts back off by the policy's schedule
        -- interpreted as wall milliseconds -- and each backoff is
        charged to the cluster network's telemetry (``retry`` /
        ``backoff_ms``).  A :class:`RemoteError` is never retried: the
        peer answered, it just said no.

        Each attempt waits ``timeout``, or ``config.request_timeout``
        when the caller passes none.  Data-kind requests additionally
        react to overload: a BUSY shed retries up to
        ``ClusterConfig.busy_retries`` times on a decorrelated-jitter
        schedule (separate from the loss-retry budget -- a shed is
        *positive* evidence the peer is alive), consecutive
        BUSY/timeout failures trip the origin's circuit breaker, and
        while it is open the request fast-fails locally with
        :class:`~repro.core.reliability.CircuitOpenError` instead of
        piling more load on the struggling overlay.
        """
        if retry is None:
            retry = self.cluster.config.retry
        attempts = 1 if retry in (None, False) else retry.max_attempts
        config = self.cluster.config
        telemetry = self.cluster.network.telemetry
        data_kind = kind in _DATA_KINDS
        breaker = self.breaker if data_kind else None
        if breaker is not None and not breaker.allow():
            telemetry.count("runtime_breaker_fastfail")
            raise CircuitOpenError(dst, breaker.retry_after_s())
        busy_budget = config.busy_retries if data_kind else 0
        jitter = None
        attempt = 0
        while True:
            try:
                result = await self._request_once(dst, kind, payload, timeout)
            except PeerBusy:
                telemetry.count("runtime_busy_reply")
                if breaker is not None and breaker.record_failure():
                    telemetry.count("runtime_breaker_open")
                if busy_budget <= 0:
                    raise
                busy_budget -= 1
                telemetry.count("runtime_busy_retry")
                if jitter is None:
                    jitter = DecorrelatedJitter(rng=self._jitter_rng)
                await asyncio.sleep(jitter.next_delay() / 1000.0)
            except (RequestTimeout, TransportError) as failure:
                # refused sends feed the failure detector, not the
                # breaker: a dead peer needs takeover, not backoff
                if (
                    isinstance(failure, RequestTimeout)
                    and breaker is not None
                    and breaker.record_failure()
                ):
                    telemetry.count("runtime_breaker_open")
                attempt += 1
                if attempt >= attempts:
                    raise
                delay_ms = retry.sleep(attempt - 1, telemetry=telemetry)
                if delay_ms > 0.0:
                    await asyncio.sleep(delay_ms / 1000.0)
            else:
                if breaker is not None and breaker.record_success():
                    telemetry.count("runtime_breaker_close")
                return result

    async def _request_once(self, dst, kind: MsgType, payload: dict, timeout) -> dict:
        if timeout is None:
            timeout = self.cluster.config.request_timeout
        request_id = next(self._req_ids)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        deadlines = self.cluster.deadlines
        frame = Frame(kind, request_id, {**payload, "src": self.addr})
        started = loop.time()
        self.pending[request_id] = future
        try:
            if dst == self.addr:
                # a self-addressed frame never crosses a network in any
                # real deployment, so it skips the transport (and its
                # codec round trip, faults, and shaping) and dispatches
                # straight off the mailbox; the payload built above is
                # this frame's private copy, as a decode would guarantee
                await self.on_frame(frame)
            elif not await self.transport.send(self.addr, dst, frame):
                raise TransportError(f"frame to {dst!r} was not sent")
            # register -> await -> sweep: the deadline is one entry in
            # the process-wide table, whose single timer fails the
            # future with TimeoutError once it has passed (at most one
            # tick late)
            deadlines.add(future, started + timeout)
            try:
                result = await future
            except TimeoutError:
                raise RequestTimeout(
                    f"{kind.name} to {dst!r} unanswered after {timeout}s"
                ) from None
        finally:
            # however the attempt ended (reply, deadline, refused send,
            # cancellation) the request is over: nothing stays behind
            # for stop() to fail unheard, and a reply that still
            # arrives finds no entry and drops in on_frame
            deadlines.discard(future)
            self.pending.pop(request_id, None)
        return result

    # -- RPC entry points (called by the Cluster) --------------------------

    async def rpc_route(self, point, op: str = "route") -> dict:
        """Route ``point`` over the wire from this node; returns the ACK.

        The first forwarding decision runs through the same machinery
        as every later hop: the ROUTE frame is addressed to *this*
        node and dispatched from its own mailbox (delivered locally --
        a self-send never touches the wire).
        """
        return await self.request(
            self.addr,
            MsgType.ROUTE,
            {"point": [float(x) for x in point], "path": [self.addr], "op": op},
        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, frame: Frame) -> None:
        if frame.kind is MsgType.ROUTE:
            await self._handle_route(frame)
        elif frame.kind is MsgType.JOIN:
            await self._handle_join(frame)
        elif frame.kind is MsgType.PUBLISH:
            await self._handle_publish(frame)
        elif frame.kind is MsgType.HEARTBEAT:
            await self._handle_heartbeat(frame)
        else:  # pragma: no cover - on_frame filters reply kinds already
            raise ValueError(f"unroutable frame kind {frame.kind!r}")

    async def _reply(self, frame: Frame, payload: dict, kind=None) -> None:
        dst = frame.payload.get("src")
        if dst is not None:
            await self.transport.send(self.addr, dst, frame.reply(payload, kind=kind))

    async def _handle_heartbeat(self, frame: Frame) -> None:
        """Answer a liveness probe; with ``relay`` set, probe on behalf.

        A ``relay`` payload is SWIM's indirect ping-req: this node is a
        witness, heartbeats the relay target itself, and reports in the
        reply whether the target answered -- so a prober whose direct
        path is down can still refute a suspicion through k witnesses.
        Plain heartbeats keep the bare ``{"seq", "from"}`` reply shape.
        """
        payload = frame.payload
        seq = payload.get("seq")
        relay = payload.get("relay")
        if relay is None:
            await self._reply(frame, {"seq": seq, "from": self.addr})
            return
        # the probe waits on the target, so it rides a task of its own:
        # this mailbox (heartbeats included) keeps draining meanwhile
        task = asyncio.ensure_future(self._relay_probe(frame, seq, relay))
        self._relays.add(task)
        task.add_done_callback(self._relays.discard)

    async def _relay_probe(self, frame: Frame, seq, relay) -> None:
        """Heartbeat ``relay`` on the prober's behalf; reply when settled."""
        timeout = frame.payload.get("timeout", self.cluster.config.probe_timeout)
        try:
            await self.request(
                relay, MsgType.HEARTBEAT, {"seq": seq}, timeout=timeout, retry=False
            )
            answered = True
        except Exception:
            answered = False
        await self._reply(
            frame, {"seq": seq, "from": self.addr, "relay": relay, "ok": answered}
        )

    async def _handle_join(self, frame: Frame) -> None:
        """Admit a newcomer (bootstrap-node duty)."""
        node_id, host = self.cluster.admit(capacity=frame.payload.get("capacity", 1.0))
        await self._reply(frame, {"node_id": node_id, "host": host})

    async def _handle_publish(self, frame: Frame) -> None:
        regions = self.cluster.routing.store.publish(self.node_id)
        await self._reply(frame, {"regions": regions, "node_id": self.node_id})

    #: forwarding-kind -> telemetry event (saves an f-string per hop);
    #: /stats and /metrics export the expressway share from these two
    _HOP_EVENT = {"can": "runtime_can_hop", "expressway": "runtime_expressway_hop"}

    async def _handle_route(self, frame: Frame) -> None:
        # hot path: `payload` is this frame's private decoded dict, so
        # the forward below may mutate it in place, and `path` rides
        # through next_hop as the visited collection (membership only)
        payload = frame.payload
        path = payload["path"]
        cluster = self.cluster
        node_id = self.node_id
        next_id, kind = cluster.routing.next_hop(
            node_id, payload["point"], visited=path
        )
        if kind == "delivered":
            result = {
                "owner": node_id,
                "path": path,
                "hops": len(path) - 1,
            }
            if payload.get("op") == "lookup" and "level" in payload:
                # map read at the serving node, fused into the delivery
                lookup = await self._serve_map_read(payload)
                result.update(lookup)
            await self._reply(frame, result)
            return
        if next_id is None or len(path) > MAX_HOPS:
            await self._reply(
                frame,
                {"error": f"route stuck after {len(path) - 1} hops", "path": path},
                kind=MsgType.ERROR,
            )
            return
        cluster.network.telemetry.count(self._HOP_EVENT[kind])
        payload["path"] = path + [next_id]
        forwarded = Frame(MsgType.ROUTE, frame.request_id, payload)
        sent = await self.transport.send(self.addr, next_id, forwarded)
        if not sent:
            await self._reply(
                frame,
                {"error": f"hop {self.addr}->{next_id} dropped", "path": path},
                kind=MsgType.ERROR,
            )

    async def _serve_map_read(self, payload: dict) -> dict:
        store = self.cluster.routing.store
        region = Region(
            int(payload["level"]), tuple(int(c) for c in payload["cell"])
        )
        result = store.lookup(int(payload["querier"]), region, charge=False)
        return {
            "served_by": result.served_by,
            "widened": result.widened,
            "records": [record.node_id for record in result.records],
        }
