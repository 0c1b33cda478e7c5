"""Pluggable live transports: one interface, loopback and real TCP.

A transport moves wire frames between named endpoints (overlay node
ids, plus short-lived string addresses during joins).  Both flavours
share the same contract:

* ``bind(addr, handler, host=...)`` registers an endpoint;
  ``handler(frame)`` receives each delivered :class:`Frame`, never
  blocks, and returns ``None`` or the awaitable the delivering side
  owes it (an ``async def`` handler is the always-owed case);
* ``send(src, dst, frame)`` is fire-and-forget: it returns once the
  frame is *in flight* (True) or known undeliverable (False);
* **payload encoding** -- ``encoding="packed"`` selects the struct
  layouts of :mod:`repro.runtime.wire` for the data plane (the
  control plane stays JSON, as listed there), ``"json"`` keeps
  every payload as JSON; both decode to identical payload dicts;
* **latency shaping** -- when built with a
  :class:`~repro.netsim.distance.DistanceOracle` and a
  ``latency_scale``, each frame is delayed by the one-way latency
  between the endpoints' physical hosts, so a live run reproduces the
  transit-stub RTT matrix at any chosen time dilation;
* **fault injection** -- an armed
  :class:`~repro.netsim.faults.FaultInjector` decides per-frame
  drops (message loss, partitions, crashed hosts) from the same
  deterministic plans the simulator uses.

:class:`LoopbackTransport` stays in-process (frames still round-trip
through the binary codec, so the wire format is exercised on every
test) and is deterministic and fast; an unshaped frame is handed to
its handler before ``send`` returns, so the hot path costs a codec
round-trip and a mailbox put -- no task per frame.
:class:`TcpTransport` listens on one localhost port per transport
(one per process, whatever its node count) and speaks the
length-prefixed protocol over real sockets, each frame behind its
destination's 4-byte envelope id; members may live in different
processes as long as they share the address book.
Sends coalesce: frames queue (shaped ones once their delay is up) in
the outbox of the listener they go to, and one ``call_soon`` callback
per loop tick writes every listener's batch to its live connection; a
listener that has to wait (no connection yet, a closing one, a write
buffer over its high-water mark) gets a ``_flush`` coroutine, which
owns that outbox until it is empty and awaits ``drain()`` per batch.
Reads are one protocol per accepted connection, whose ``data_received``
delivers every frame of a chunk before it returns; a connection whose
handler is owed an awaitable is paused and gets a ``_serve``
coroutine, which owns it until its backlog is delivered.  Either side
costs a task only while it waits, with explicit backpressure and
frames in order.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque

from repro.runtime.wire import (
    ENVELOPE,
    Frame,
    FrameDecoder,
    ProtocolError,
    decode_frame,
    encode_frame,
    roundtrip_payload,
)


class TransportError(Exception):
    """An endpoint could not be reached (unbound, closed, refused)."""


class Transport:
    """Shared plumbing: endpoint registry, encoding, shaping, faults."""

    #: short name used by :func:`make_transport` and reports
    kind = "base"

    def __init__(
        self, oracle=None, latency_scale: float = 0.0, encoding: str = "json"
    ):
        if encoding not in ("json", "packed"):
            raise ValueError(
                f"unknown wire encoding {encoding!r} (want 'json' or 'packed')"
            )
        #: :class:`DistanceOracle` driving per-frame delays (or None)
        self.oracle = oracle
        #: wall seconds of delay per simulated millisecond of one-way
        #: latency; 0 disables shaping entirely
        self.latency_scale = float(latency_scale)
        #: armed :class:`FaultInjector` deciding drops (or None); the
        #: cluster arms it when faults are first injected
        self.faults = None
        #: payload encoding: "json" or "packed" (struct fast path)
        self.encoding = encoding
        self._packed = encoding == "packed"
        #: addr -> physical host id, for shaping and fault decisions
        self.hosts: dict = {}
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        #: frames refused by a full outbox (stream transports only)
        self.backpressure_drops = 0
        #: shaped frames still waiting out their delay
        self._on_wire = 0
        self._tasks: set = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Prepare shared machinery (a TCP listener; loopback needs none)."""

    async def bind(self, addr, handler, host: int = None) -> None:
        """``handler(frame)`` never blocks; it returns ``None`` or the
        awaitable the delivering side owes it."""
        raise NotImplementedError

    async def unbind(self, addr) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        """Stop every task; a shaped frame it cancels on the wire counts
        as dropped, whether or not its task had started."""
        self._closed = True
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        self.dropped += self._on_wire
        self._on_wire = 0

    def counters(self) -> dict:
        """Frame-accounting totals, in the shape stats aggregation merges.

        Subclasses with extra planes (the sharded runtime's
        :class:`~repro.runtime.shard.PeeringTransport`) override this
        with their own breakdown; the keys stay summable numbers.
        """
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "backpressure_drops": self.backpressure_drops,
        }

    # -- shaping and faults ------------------------------------------------

    def delay_for(self, src, dst) -> float:
        """Wall seconds this frame spends 'on the wire'."""
        if self.oracle is None or self.latency_scale <= 0.0:
            return 0.0
        src_host = self.hosts.get(src)
        dst_host = self.hosts.get(dst)
        if src_host is None or dst_host is None or src_host == dst_host:
            return 0.0
        return float(self.oracle.distance(src_host, dst_host)) * self.latency_scale

    def drops(self, src, dst) -> bool:
        """Would the armed fault plan drop this frame?"""
        if self.faults is None or not self.faults.armed:
            return False
        src_host = self.hosts.get(src)
        dst_host = self.hosts.get(dst)
        if src_host is None or dst_host is None:
            return False
        return not self.faults.deliver(src_host, dst_host)

    def _spawn(self, coroutine) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def send(self, src, dst, frame: Frame) -> bool:
        raise NotImplementedError


class LoopbackTransport(Transport):
    """In-process delivery through the codec: fast and deterministic."""

    kind = "loopback"

    def __init__(
        self, oracle=None, latency_scale: float = 0.0, encoding: str = "json"
    ):
        super().__init__(oracle, latency_scale, encoding)
        self._handlers: dict = {}

    async def bind(self, addr, handler, host: int = None) -> None:
        if addr in self._handlers:
            raise TransportError(f"address {addr!r} already bound")
        self._handlers[addr] = handler
        if host is not None:
            self.hosts[addr] = int(host)

    async def unbind(self, addr) -> None:
        self._handlers.pop(addr, None)
        self.hosts.pop(addr, None)

    async def send(self, src, dst, frame: Frame) -> bool:
        if self._closed:
            raise TransportError("transport is closed")
        self.sent += 1
        if self.faults is not None and self.drops(src, dst):
            self.dropped += 1
            return False
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped += 1
            return False
        # round-trip the payload through the codec so loopback runs
        # carry exactly what TCP would decode, and refuse what TCP
        # would refuse to encode (the fixed 16-byte header needs no
        # such fidelity check per frame)
        try:
            payload = roundtrip_payload(frame.kind, frame.payload, self._packed)
        except Exception:
            self.dropped += 1
            raise
        frame = Frame(frame.kind, frame.request_id, payload)
        delay = self.delay_for(src, dst) if self.latency_scale > 0.0 else 0.0
        if delay <= 0.0:
            # unshaped fast path: the handler only enqueues (mailbox
            # put / future resolution), so this never blocks and saves
            # a task spawn per frame
            self.delivered += 1
            owed = handler(frame)
            if owed is not None:
                await owed
            return True
        self._on_wire += 1
        self._spawn(self._deliver(dst, frame, delay))
        return True

    async def _deliver(self, dst, frame: Frame, delay: float) -> None:
        await asyncio.sleep(delay)
        self._on_wire -= 1
        handler = self._handlers.get(dst)
        if handler is None:  # unbound while the frame was in flight
            self.dropped += 1
            return
        self.delivered += 1
        owed = handler(frame)
        if owed is not None:
            await owed


class _Connection(asyncio.Protocol):
    """One accepted stream connection: ``data_received`` hands every
    frame its chunk completes to :meth:`StreamTransport._route` before
    it returns.  Once a delivery is owed an awaitable the connection
    stops reading and a :meth:`StreamTransport._serve` task owns it,
    and the frames behind that one in :attr:`backlog`, until nothing
    is owed."""

    def __init__(self, owner):
        self.owner = owner
        self.decoder = FrameDecoder()
        #: decoded, undelivered ``(dst, frame)`` pairs; non-empty only
        #: while :attr:`owed`
        self.backlog: deque = deque()
        #: what the last delivery is owed (None: nobody has to wait)
        self.owed = None

    def connection_made(self, stream) -> None:
        self.stream = stream
        self.owner._readers.add(self)

    def connection_lost(self, exc) -> None:
        self.owner._readers.discard(self)

    def data_received(self, data: bytes) -> None:
        try:
            self.backlog.extend(self.decoder.feed(data))
        except ProtocolError:
            pass
        if self.owed is None and self.pump() is not None:
            self.stream.pause_reading()
            task = self.owner._spawn(self.owner._serve(self, self.owed))
            task.add_done_callback(self._released)
        if self.decoder.poisoned:
            # a poisoned byte stream (bad magic, corrupt length, junk
            # payload) kills only this connection, after the frames it
            # completed: every handler stays bound, and the peer's next
            # connection gets a fresh decoder
            self.owner.dropped += 1
            self.stream.close()

    def pump(self):
        """Deliver the backlog in order, up to the first frame that is
        owed an awaitable; returns (and keeps) that awaitable."""
        backlog, route = self.backlog, self.owner._route
        self.owed = None
        while backlog and self.owed is None:
            self.owed = route(backlog.popleft())
        return self.owed

    def _released(self, _task) -> None:
        """``_serve`` is done: read on, unless it was stopped half-way."""
        if self.owed is None:
            self.stream.resume_reading()
        else:
            self.close()

    def close(self) -> None:
        """Drop the connection; frames decoded but never delivered count."""
        self.owner.dropped += len(self.backlog)
        self.backlog.clear()
        if hasattr(self.owed, "close"):
            self.owed.close()  # ``_serve`` was cancelled before it awaited it
        self.stream.close()


class StreamTransport(Transport):
    """Batched stream links: one listener, one link per peer listener.

    What every socket-backed transport shares.  A transport serves all
    its handlers on one port (:meth:`_listen`), and every frame on a
    socket is the destination's 4-byte :data:`~repro.runtime.wire.ENVELOPE`
    id ahead of the v3 frame: :meth:`_route` hands it to the handler
    bound here under that id (:attr:`_local`).  Sends are keyed by the
    ``(interface, port)`` listener they go to, which subclasses look up
    in the :attr:`endpoints` address book (by node address for
    :class:`TcpTransport`, by peer shard for the sharded runtime's
    :class:`~repro.runtime.shard.PeeringTransport`): encoded frames
    queue in that listener's outbox; one callback per loop tick writes
    every key's batch to its live connection (:meth:`_tick`), and a key
    that must wait -- to connect, or for a full write buffer to drain
    -- is owned by a :meth:`_flush` coroutine until its outbox is
    empty.  Reads mirror it: one protocol per accepted connection, and
    :meth:`_serve` is the path that waits.
    """

    #: per-key write-queue cap in frames: a peer whose flusher cannot
    #: keep up stops ballooning sender memory -- overflow frames drop
    #: (send returns False) and count as ``backpressure_drops``
    OUTBOX_CAP = 8192

    def __init__(
        self,
        oracle=None,
        latency_scale: float = 0.0,
        encoding: str = "json",
        interface: str = "127.0.0.1",
    ):
        super().__init__(oracle, latency_scale, encoding)
        self.interface = interface
        #: address book: key -> (interface, port) of the listener serving it
        self.endpoints: dict = {}
        #: this transport's listening port (None until :meth:`_listen`)
        self.port = None
        self._server = None
        #: envelope id -> handler, for the frames this listener accepts
        self._local: dict = {}
        #: accepted frames whose envelope id is bound to no handler
        #: here (also counted in ``dropped``)
        self.misrouted = 0
        self._writers: dict = {}
        self._readers: set = set()
        #: key -> encoded frames not yet written; present while the
        #: next tick or a ``_flush`` task owes the key a write
        self._outbox: dict = {}
        #: keys the next tick writes (the rest belong to a ``_flush``)
        self._due: list = []

    async def _writer_for(self, key) -> asyncio.StreamWriter:
        # only the ``_flush`` owning ``key`` calls this: connects never race
        writer = self._writers.get(key)
        if writer is not None:
            if not writer.is_closing():
                return writer
            # close the moribund connection for real instead of
            # letting the overwritten writer leak its socket
            self._writers.pop(key, None)
            writer.close()
        try:
            _, writer = await asyncio.open_connection(*key)
        except OSError as exc:
            raise TransportError(f"connect to {key!r} failed: {exc}") from exc
        self._writers[key] = writer
        return writer

    def _enqueue(self, key, data: bytes) -> bool:
        """Queue one encoded frame for ``key``; False = refused."""
        batch = self._outbox.get(key)
        if batch is None:
            self._outbox[key] = [data]
            if key not in self._writers:
                # first contact connects now, not a tick later
                self._spawn(self._flush(key))
            else:
                if not self._due:
                    asyncio.get_running_loop().call_soon(self._tick)
                self._due.append(key)
        elif len(batch) >= self.OUTBOX_CAP:
            # the writer is behind by a full cap: refuse the frame
            # instead of queueing unbounded sender-side memory
            self.backpressure_drops += 1
            self.dropped += 1
            return False
        else:
            batch.append(data)
        return True

    def _tick(self) -> None:
        """Write every due key's batch to its live connection; a key
        that would have to wait (connection gone or closing, write
        buffer over the stream's own high-water mark) goes to
        :meth:`_flush`, its batch still queued."""
        due, self._due = self._due, []
        if self._closed:
            return  # close() counts what is still queued
        writers, outbox = self._writers, self._outbox
        for key in due:
            writer = writers.get(key)
            if writer is not None and not writer.is_closing():
                stream = writer.transport
                high_water = stream.get_write_buffer_limits()[1]
                if stream.get_write_buffer_size() <= high_water:
                    writer.write(b"".join(outbox.pop(key)))
                    continue
            self._spawn(self._flush(key))

    async def _flush(self, key) -> None:
        """Own ``key``'s outbox until it is empty: the path that waits.

        One connect if needed, then one write and one ``drain()`` per
        batch; frames sent meanwhile coalesce into the next, so a slow
        peer throttles the sender at batch granularity.  A batch leaves
        the outbox only once there is a connection for it: what a
        cancelled connect leaves behind is :meth:`close`'s to count.
        """
        outbox = self._outbox
        while outbox.get(key):
            try:
                writer = await self._writer_for(key)
            except TransportError:
                self.dropped += len(outbox.pop(key))
                return
            batch, outbox[key] = outbox[key], []
            try:
                writer.write(b"".join(batch))
                await writer.drain()
            except OSError:
                self.dropped += len(batch)
        outbox.pop(key, None)

    async def _listen(self) -> None:
        """Open this transport's one listening port (:attr:`port`)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.interface, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _route(self, envelope):
        """Hand one accepted ``(dst, frame)`` to the handler bound under
        envelope id ``dst``; an id bound to nothing here (a crashed
        member, a joiner that has moved on) drops and counts."""
        dst, frame = envelope
        handler = self._local.get(dst)
        if handler is None:
            self.misrouted += 1
            self.dropped += 1
            return None
        self.delivered += 1
        return handler(frame)

    async def _serve(self, connection, owed) -> None:
        """Own ``connection`` until nothing is owed: the read that
        waits, as :meth:`_flush` is the write that waits.  The connection
        is paused meanwhile (the kernel throttles the peer) and reads on
        once its backlog is delivered, in arrival order."""
        while owed is not None:
            await owed
            owed = connection.pump()

    async def close(self) -> None:
        """Stop everything; frames never written, or decoded and never
        delivered, count as dropped: ``sent == delivered + dropped``."""
        await super().close()
        self.dropped += sum(len(batch) for batch in self._outbox.values())
        self._outbox.clear()
        for writer in list(self._writers.values()) + list(self._readers):
            writer.close()
        self._writers.clear()
        self._readers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.endpoints.clear()


class TcpTransport(StreamTransport):
    """Real sockets: every endpoint of a process behind one listener.

    :meth:`start` opens the one localhost listening port; :meth:`bind`
    and :meth:`unbind` only add or remove a handler, and every bound
    address maps to that port in the address book, so the frames for
    all of a process's nodes ride one connection to it, whatever the
    node count.  A member's envelope id is its node id, so any
    transport that shares the address book can reach it.  A temporary
    string address (``"joiner:k"``, ``"rejoin:k"``) takes an id counted
    down from the top of the u32 range at bind and frees it at unbind;
    an id is never handed out twice, so a frame still on its way to a
    joiner that has moved on drops (and counts) at the receiver instead
    of reaching the next joiner.
    """

    kind = "tcp"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: address bound here -> its envelope id
        self._ids: dict = {}
        self._temporary_ids = itertools.count(2**32 - 1, -1)

    async def start(self) -> None:
        await self._listen()

    async def bind(self, addr, handler, host: int = None) -> None:
        if self.port is None:
            raise TransportError("transport is not started")
        if addr in self._ids:
            raise TransportError(f"address {addr!r} already bound")
        ident = next(self._temporary_ids) if isinstance(addr, str) else int(addr)
        self._ids[addr] = ident
        self._local[ident] = handler
        self.endpoints[addr] = (self.interface, self.port)
        if host is not None:
            self.hosts[addr] = int(host)

    async def unbind(self, addr) -> None:
        self._local.pop(self._ids.pop(addr, None), None)
        self.endpoints.pop(addr, None)
        self.hosts.pop(addr, None)

    async def send(self, src, dst, frame: Frame) -> bool:
        if self._closed:
            raise TransportError("transport is closed")
        self.sent += 1
        if self.drops(src, dst):
            self.dropped += 1
            return False
        key = self.endpoints.get(dst)
        if key is None:
            self.dropped += 1
            return False
        try:
            data = ENVELOPE.pack(self._ids.get(dst, dst)) + encode_frame(
                frame, packed=self._packed
            )
        except Exception:
            # the codec refused the frame: it was sent, and never delivered
            self.dropped += 1
            raise
        delay = self.delay_for(src, dst)
        if delay > 0.0:
            # shaped frames keep their individual departure times
            self._on_wire += 1
            self._spawn(self._depart(key, data, delay))
            return True
        return self._enqueue(key, data)

    async def _depart(self, key, data: bytes, delay: float) -> None:
        """A shaped frame joins ``key``'s outbox when its time comes."""
        await asyncio.sleep(delay)
        self._on_wire -= 1
        self._enqueue(key, data)


def make_transport(kind: str, **kwargs) -> Transport:
    """Build a transport by name (``"loopback"`` or ``"tcp"``)."""
    if kind == "loopback":
        return LoopbackTransport(**kwargs)
    if kind == "tcp":
        return TcpTransport(**kwargs)
    raise ValueError(f"unknown transport {kind!r} (want 'loopback' or 'tcp')")
