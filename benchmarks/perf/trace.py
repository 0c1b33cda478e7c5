"""Span tracer for the traced pass: wrappers around the layer boundaries.

Nothing under ``src/`` knows about this module.  The traced pass
replaces the public functions at each layer boundary (class attributes,
and for the codec the names the transport imported) with wrappers that
record a **span**: name, start, end, the span that caused it, and the
identifier of the generated request it belongs to.  Spans stay in
memory and are written out once, at the end.

**Self time.**  The live runtime is one thread, so what is running at
any instant is a stack of wrapped calls.  A span's *busy* time is the
time its code (or anything it called) was actually on that stack --
for a coroutine that is the sum of its resumptions, never the time it
sat suspended -- and its *self* time is busy time minus the busy time
of the spans directly beneath it.  The wrappers time themselves too:
what a wrapper spends before its span starts and after it ends is
booked to a layer of its own, ``trace``, and kept out of the enclosing
span's self time, so a layer is not charged for being traced often.
Self times of all layers, ``trace`` included, therefore add up to the
time spent inside any wrapped call, and the rest of the process's CPU
is ``gen.unattributed_us_per_op`` (event loop, selector, asyncio
streams, generator frames of the wrappers, anything not wrapped).

**Request identifiers.**  The generator sets :data:`REQUEST` before it
issues an operation.  A span started underneath another span inherits
its request; a span that carries a wire frame looks the frame's
``(origin, request_id)`` up first, because mailbox drain tasks and TCP
reader tasks outlive the request whose context they were created in.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
from collections import defaultdict

#: identifier of the operation the current task is issuing
REQUEST = contextvars.ContextVar("perf_request", default=None)

_now = time.perf_counter

#: fixture frames kept per frame kind for the codec micro-cells
MAX_FIXTURES = 256


class _Span:
    __slots__ = ("id", "parent", "request", "name", "layer", "start", "end", "busy")

    def __init__(self, span_id, name, layer):
        self.id = span_id
        self.parent = None
        self.request = None
        self.name = name
        self.layer = layer
        self.start = None
        self.end = None
        self.busy = 0.0


class _Resumptions:
    """Awaitable that times each resumption of ``coro`` as part of one span.

    The tracer's switch is read at every resumption, not once per call:
    a TCP reader coroutine starts during warm-up, with tracing off, and
    must still be timed once the traced slices begin.
    """

    __slots__ = ("tracer", "name", "layer", "coro", "key", "after", "args", "entered")

    def __init__(self, tracer, name, layer, coro, key, after, args, entered):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.coro = coro
        self.key = key
        self.after = after
        self.args = args
        #: when the wrapper was called, so building this object counts
        #: as tracing cost rather than as the caller's self time
        self.entered = entered

    def __await__(self):
        tracer = self.tracer
        inner = self.coro.__await__()
        span = value = error = None
        entered = self.entered
        try:
            while True:
                timed = tracer.enabled
                if timed:
                    if span is None:
                        span = tracer._open(self.name, self.layer, self.key)
                    tracer._push(span, entered)
                try:
                    if error is None:
                        yielded = inner.send(value)
                    else:
                        yielded = inner.throw(error)
                except StopIteration as stop:
                    if timed:
                        left = tracer._pop()
                        timed = False
                        if self.after is not None:
                            self.after(tracer, self.args, stop.value)
                        tracer._settle(left)
                    return stop.value
                finally:
                    if timed:
                        tracer._settle(tracer._pop())
                try:
                    value = yield yielded
                    error = None
                except BaseException as exc:  # cancellation must reach ``coro``
                    value, error = None, exc
                entered = _now()
        finally:
            if span is not None:
                tracer._close(span)


class Tracer:
    """Span store, exclusive-time accounting and boundary patching."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        #: layer -> exclusive seconds
        self.self_s = defaultdict(float)
        #: span name -> finished spans
        self.calls = defaultdict(int)
        #: free-form counters bumped by the ``after`` hooks
        self.counts = defaultdict(float)
        #: frame kind -> captured (kind, request_id, payload) triples
        self.fixtures = defaultdict(list)
        self._stack: list = []
        self._frame_request: dict = {}
        self._next_id = 0
        self._patches: list = []

    # -- the running stack ---------------------------------------------------

    def _open(self, name, layer, frame_key=None) -> _Span:
        self._next_id += 1
        span = _Span(self._next_id, name, layer)
        stack = self._stack
        request = None
        if frame_key is not None:
            request = self._frame_request.get(frame_key)
        if stack:
            parent = stack[-1][0]
            span.parent = parent.id
            if request is None:
                request = parent.request
        if request is None:
            request = REQUEST.get()
        if frame_key is not None:
            self._frame_request.setdefault(frame_key, request)
        span.request = request
        return span

    def _push(self, span, entered: float) -> None:
        """Start a resumption; ``entered`` is when its wrapper began.

        The clock is read last here and first in :meth:`_pop`, so as
        little of the wrapper as possible falls inside the span."""
        entry = [span, 0.0, 0.0, entered]
        self._stack.append(entry)
        entry[1] = _now()

    def _pop(self) -> float:
        now = _now()
        span, began, beneath, entered = self._stack.pop()
        elapsed = now - began
        if span.start is None:
            span.start = began
        span.busy += elapsed
        span.end = now
        self.self_s[span.layer] += elapsed - beneath
        own = began - entered
        self.self_s["trace"] += own
        if self._stack:
            self._stack[-1][2] += elapsed + own
        return now

    def _settle(self, left: float) -> None:
        """Book the wrapper's time since its span's resumption ended to
        the ``trace`` layer, and hide it from the enclosing span."""
        own = _now() - left
        self.self_s["trace"] += own
        if self._stack:
            self._stack[-1][2] += own

    def _close(self, span) -> None:
        self.calls[span.name] += 1
        # a tuple of plain values: the collector stops tracking it after
        # its first pass, where a million live span objects would make
        # every full collection (charged to whatever span is running)
        # slower than the one before
        self.spans.append(
            (span.id, span.parent, span.request, span.name,
             span.start, span.end, span.busy)
        )

    # -- wrappers --------------------------------------------------------------

    def sync(self, layer, name, fn, frame_key=None, after=None):
        """Wrap a plain function as one span per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            entered = _now()
            span = tracer._open(
                name, layer, None if frame_key is None else frame_key(*args)
            )
            tracer._push(span, entered)
            try:
                result = fn(*args, **kwargs)
            finally:
                left = tracer._pop()
                tracer._close(span)
            if after is not None:
                after(tracer, args, result)
            tracer._settle(left)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def coroutine(self, layer, name, fn, frame_key=None, after=None, task=False):
        """Wrap an ``async def`` as one span covering all its resumptions.

        The wrapper returns a bare awaitable, which is all ``await``
        needs and saves a coroutine frame per call; ``task=True`` makes
        it a real coroutine function, for the few the runtime hands to
        ``create_task`` or ``start_server``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            entered = _now()
            key = None if frame_key is None else frame_key(*args)
            return _Resumptions(
                tracer, name, layer, fn(*args, **kwargs), key, after, args, entered
            )

        async def as_task(*args, **kwargs):
            return await wrapper(*args, **kwargs)

        chosen = as_task if task else wrapper
        chosen.__wrapped__ = fn
        return chosen

    def counter(self, name, fn, after=None):
        """Count calls without a span (for functions too hot to time)."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                tracer.counts[name] += 1
                if after is not None:
                    after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def dump(self, path, **header) -> None:
        """Write every span as one JSON document."""
        document = dict(
            header,
            columns=["id", "parent", "request", "name", "start", "end", "busy"],
            spans=self.spans,
        )
        with open(path, "w") as out:
            json.dump(document, out)


@contextlib.contextmanager
def switched_on(tracer):
    """Record spans for the duration of one slice; ``None`` records nothing."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


# -- counting hooks: ``after(tracer, call args, result)`` ---------------------------


def _after_send(tracer, args, sent):
    frame = args[3]
    kept = tracer.fixtures[frame.kind]
    if len(kept) < MAX_FIXTURES:
        kept.append((frame.kind, frame.request_id, dict(frame.payload)))


def _after_next_hop(tracer, args, result):
    tracer.counts[result[1]] += 1  # "can" | "expressway" | "delivered" | "stuck"


def _after_pack(tracer, args, packed):
    if packed is None:
        tracer.counts["wire.fallback"] += 1


def _after_store_lookup(tracer, args, result):
    tracer.counts["store.records"] += len(result.records)
    if result.widened:
        tracer.counts["store.widened"] += 1


def _after_ecan_route(tracer, args, result):
    tracer.counts["ecan.hops"] += result.hops


def _after_feed(tracer, args, frames):
    tracer.counts["wire.decoded"] += len(frames)


def install_live(tracer: Tracer) -> None:
    """Wrap the live runtime's layer boundaries.

    Must run before the cluster boots: the TCP transport's reader
    coroutines start at connect time and live as long as the socket.
    """
    from repro.runtime import transport, wire
    from repro.runtime.cluster import Cluster, RoutingView
    from repro.runtime.node import NodeProcess
    from repro.softstate.store import SoftStateStore

    replies = frozenset({wire.MsgType.ACK, wire.MsgType.ERROR, wire.MsgType.BUSY})

    def frame_origin(frame, receiver):
        """``(origin, request_id)``: replies name no ``src``, so a reply
        is keyed by the endpoint it is travelling to (``receiver``)."""
        if frame.kind in replies:
            return (receiver, frame.request_id)
        return (frame.payload.get("src"), frame.request_id)

    def key_on_frame(actor, frame):
        return frame_origin(frame, actor.addr)

    def key_send(transport_, src, dst, frame):
        return frame_origin(frame, dst)

    # runtime.wire: the codec, where the transports call it
    for name in ("encode_frame", "decode_frame", "roundtrip_payload"):
        tracer.patch(
            transport, name, tracer.sync("wire", "wire." + name, getattr(wire, name))
        )
    tracer.patch(
        wire.FrameDecoder,
        "feed",
        tracer.sync("wire", "wire.feed", wire.FrameDecoder.feed, after=_after_feed),
    )
    # one pack attempt per frame on either transport: the frame count,
    # and a ``None`` is a frame that left the packed fast path
    tracer.patch(
        wire,
        "pack_payload",
        tracer.counter("wire.frames", wire.pack_payload, after=_after_pack),
    )
    # runtime.transport
    for cls in (transport.LoopbackTransport, transport.TcpTransport):
        tracer.patch(
            cls,
            "send",
            tracer.coroutine(
                "transport",
                "transport.send",
                cls.send,
                frame_key=key_send,
                after=_after_send,
            ),
        )
    for attr in ("_flush", "_serve"):
        tracer.patch(
            transport.TcpTransport,
            attr,
            tracer.coroutine(
                "transport", "transport." + attr.strip("_"),
                getattr(transport.TcpTransport, attr),
                task=True,
            ),
        )
    # runtime.node
    tracer.patch(
        NodeProcess,
        "on_frame",
        tracer.coroutine(
            "node", "node.on_frame", NodeProcess.on_frame, frame_key=key_on_frame
        ),
    )
    tracer.patch(
        NodeProcess,
        "_dispatch",
        tracer.coroutine(
            "node", "node.dispatch", NodeProcess._dispatch, frame_key=key_on_frame
        ),
    )
    tracer.patch(
        NodeProcess,
        "request",
        tracer.coroutine("node", "node.request", NodeProcess.request),
    )
    # runtime.cluster: the routing decision and the RPC surface
    tracer.patch(
        RoutingView,
        "next_hop",
        tracer.sync(
            "routing", "routing.next_hop", RoutingView.next_hop,
            after=_after_next_hop,
        ),
    )
    for attr in ("lookup", "lookup_map", "publish"):
        tracer.patch(
            Cluster,
            attr,
            tracer.coroutine("cluster", "cluster." + attr, getattr(Cluster, attr)),
        )
    # softstate.store
    _patch_store(tracer, SoftStateStore)


def _patch_store(tracer: Tracer, store_cls) -> None:
    tracer.patch(
        store_cls,
        "lookup",
        tracer.sync(
            "store", "store.lookup", store_cls.lookup, after=_after_store_lookup
        ),
    )
    tracer.patch(
        store_cls, "publish", tracer.sync("store", "store.publish", store_cls.publish)
    )


def install_sim(tracer: Tracer) -> None:
    """Wrap the simulator's layer boundaries (``add_node``'s four
    steps, routing, map reads, and the oracle as a bare counter)."""
    from repro.core.builder import TopologyAwareOverlay
    from repro.netsim.distance import DistanceOracle
    from repro.overlay.can import CanOverlay
    from repro.overlay.ecan import EcanOverlay
    from repro.proximity.landmarks import LandmarkSpace
    from repro.softstate.store import SoftStateStore

    tracer.patch(
        LandmarkSpace,
        "measure",
        tracer.sync("proximity", "proximity.measure", LandmarkSpace.measure),
    )
    tracer.patch(CanOverlay, "join", tracer.sync("can", "can.join", CanOverlay.join))
    _patch_store(tracer, SoftStateStore)
    tracer.patch(
        EcanOverlay,
        "build_table",
        tracer.sync("ecan", "ecan.build_table", EcanOverlay.build_table),
    )
    tracer.patch(
        EcanOverlay,
        "route",
        tracer.sync("ecan", "ecan.route", EcanOverlay.route, after=_after_ecan_route),
    )
    for attr in ("add_node", "route_between"):
        tracer.patch(
            TopologyAwareOverlay,
            attr,
            tracer.sync(
                "builder", "builder." + attr, getattr(TopologyAwareOverlay, attr)
            ),
        )
    tracer.patch(
        DistanceOracle,
        "distance",
        tracer.counter("oracle.distance", DistanceOracle.distance),
    )


def install_shard_parent(tracer: Tracer) -> None:
    """Parent-side view of a sharded cluster: control round trips only.

    Workers fork from this process, so anything wrapped here before
    boot would run (unread) inside them; spans inside workers are a
    later issue.
    """
    from repro.runtime.shard import ShardedCluster

    tracer.patch(
        ShardedCluster,
        "_call",
        tracer.coroutine("shard", "shard.control", ShardedCluster._call),
    )
