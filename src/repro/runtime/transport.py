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
:class:`TcpTransport` listens on one localhost port per endpoint and
speaks the length-prefixed protocol over real sockets; endpoints may
live in different processes as long as they share the address book.
Sends coalesce: frames queue (shaped ones once their delay is up) in a
per-destination outbox and one ``call_soon`` callback per loop tick
writes every destination's batch to its live connection; a destination
that has to wait (no connection yet, a closing one, a write buffer
over its high-water mark) gets a ``_flush`` coroutine, which owns that
outbox until it is empty and awaits ``drain()`` per batch.  Reads are
one protocol per accepted connection, whose ``data_received`` delivers
every frame of a chunk before it returns; a connection whose handler
is owed an awaitable is paused and gets a ``_serve`` coroutine, which
owns it until its backlog is delivered.  Either side costs a task only
while it waits, with explicit backpressure and frames in order.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.runtime.wire import (
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
        """Prepare shared machinery (no-op for both built-ins)."""

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
        # round-trip the payload through the codec so loopback runs
        # carry exactly what TCP would decode (the fixed 16-byte
        # header needs no such fidelity check per frame)
        frame = Frame(
            frame.kind,
            frame.request_id,
            roundtrip_payload(frame.kind, frame.payload, self._packed),
        )
        if self.drops(src, dst):
            self.dropped += 1
            return False
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped += 1
            return False
        delay = self.delay_for(src, dst)
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
    frame its chunk completes to ``deliver`` before it returns.  Once a
    delivery is owed an awaitable the connection stops reading and a
    :meth:`StreamTransport._serve` task owns it, and the frames behind
    that one in :attr:`backlog`, until nothing is owed."""

    def __init__(self, owner, deliver, envelope: bool):
        self.owner, self.deliver = owner, deliver
        self.decoder = FrameDecoder(envelope)
        #: decoded, undelivered frames; non-empty only while :attr:`owed`
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
            # completed: the endpoint stays bound, and the peer's next
            # connection gets a fresh decoder
            self.owner.dropped += 1
            self.stream.close()

    def pump(self):
        """Deliver the backlog in order, up to the first frame that is
        owed an awaitable; returns (and keeps) that awaitable."""
        backlog, deliver = self.backlog, self.deliver
        self.owed = None
        while backlog and self.owed is None:
            self.owed = deliver(backlog.popleft())
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
    """Batched stream links: one cached connection and outbox per key.

    What every socket-backed transport shares, keyed by whatever it
    connects *to* (an endpoint address for :class:`TcpTransport`, a
    peer shard for the sharded runtime's
    :class:`~repro.runtime.shard.PeeringTransport`): encoded frames
    queue in a per-key outbox; one callback per loop tick writes every
    key's batch to its live connection (:meth:`_tick`), and a key that
    must wait -- to connect, or for a full write buffer to drain -- is
    owned by a :meth:`_flush` coroutine until its outbox is empty.
    Reads mirror it: :meth:`_listen` accepts, :meth:`_serve` is the
    path that waits.  Subclasses fill the :attr:`endpoints` address book.
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
        #: address book: key -> (interface, port)
        self.endpoints: dict = {}
        #: listening servers, by the key they accept for
        self._servers: dict = {}
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
        endpoint = self.endpoints.get(key)
        if endpoint is None:
            raise TransportError(f"no endpoint bound for {key!r}")
        try:
            _, writer = await asyncio.open_connection(*endpoint)
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

    async def _listen(self, key, deliver, envelope: bool = False) -> int:
        """Serve ``key`` on a fresh port (returned) via ``deliver(frame)``."""
        server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self, deliver, envelope), self.interface, 0
        )
        self._servers[key] = server
        return server.sockets[0].getsockname()[1]

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
        for server in self._servers.values():
            server.close()
        await asyncio.gather(
            *(server.wait_closed() for server in self._servers.values()),
            return_exceptions=True,
        )
        self._servers.clear()
        self.endpoints.clear()


class TcpTransport(StreamTransport):
    """Real sockets: one localhost ``asyncio`` server per endpoint."""

    kind = "tcp"

    async def bind(self, addr, handler, host: int = None) -> None:
        if addr in self._servers:
            raise TransportError(f"address {addr!r} already bound")

        def deliver(frame):
            self.delivered += 1
            return handler(frame)

        self.endpoints[addr] = (self.interface, await self._listen(addr, deliver))
        if host is not None:
            self.hosts[addr] = int(host)
        # a rebind hands the address a fresh port, so a cached writer
        # still points at the old (dying) endpoint and would black-hole
        # every frame until it noticed the close -- invalidate eagerly
        self._discard_writer(addr)

    async def unbind(self, addr) -> None:
        server = self._servers.pop(addr, None)
        self.endpoints.pop(addr, None)
        self.hosts.pop(addr, None)
        self._discard_writer(addr)
        if server is not None:
            server.close()
            await server.wait_closed()

    def _discard_writer(self, dst) -> None:
        """Drop (and actually close) the cached connection to ``dst``."""
        writer = self._writers.pop(dst, None)
        if writer is not None:
            writer.close()

    async def send(self, src, dst, frame: Frame) -> bool:
        if self._closed:
            raise TransportError("transport is closed")
        self.sent += 1
        if self.drops(src, dst):
            self.dropped += 1
            return False
        if dst not in self.endpoints:
            self.dropped += 1
            return False
        data = encode_frame(frame, packed=self._packed)
        delay = self.delay_for(src, dst)
        if delay > 0.0:
            # shaped frames keep their individual departure times
            self._on_wire += 1
            self._spawn(self._depart(dst, data, delay))
            return True
        return self._enqueue(dst, data)

    async def _depart(self, dst, data: bytes, delay: float) -> None:
        """A shaped frame joins ``dst``'s outbox when its time comes."""
        await asyncio.sleep(delay)
        self._on_wire -= 1
        self._enqueue(dst, data)


def make_transport(kind: str, **kwargs) -> Transport:
    """Build a transport by name (``"loopback"`` or ``"tcp"``)."""
    if kind == "loopback":
        return LoopbackTransport(**kwargs)
    if kind == "tcp":
        return TcpTransport(**kwargs)
    raise ValueError(f"unknown transport {kind!r} (want 'loopback' or 'tcp')")
