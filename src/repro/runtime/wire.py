"""The versioned, length-prefixed binary wire protocol.

Every message on the wire is one *frame*::

    0      2      3      4              12         16
    +------+------+------+--------------+----------+----------------+
    | 'RW' | ver  | type |  request_id  | pay_len  |    payload     |
    +------+------+------+--------------+----------+----------------+
      2 B    1 B    1 B       8 B (BE)     4 B (BE)    pay_len B

A fixed :data:`MAGIC` guards against cross-protocol traffic, the
version byte rejects frames from any other protocol version (a reader
accepts exactly :data:`WIRE_VERSION`), and :data:`MAX_PAYLOAD` caps a
frame so a corrupt (or hostile) length field can never make a reader
buffer gigabytes.

The payload travels in one of two encodings, discriminated by the
:data:`PACKED_FLAG` bit of the type byte:

* **JSON** (flag clear) -- compact UTF-8 JSON, small, debuggable and
  structure-flexible.  Every frame kind can travel as JSON, and the
  control plane always does: JOIN, HEARTBEAT, ERROR and BUSY carry
  string addresses, optional relay fields and free-text reasons, and
  no workload of ``BENCHMARK.json`` loads them, so no struct layout is
  justified for them yet.  The bare ``{"src"}`` PUBLISH *request* is
  listed with them for a different reason: a node only ever addresses
  it to itself, and a self-addressed frame skips the codec altogether.
* **packed** (flag set) -- the data plane (ROUTE and every ACK
  answering a ``lookup`` / ``route`` / ``lookup_map`` / ``publish``
  RPC; a map read rides fused into the ROUTE that delivers it) carries
  points, paths and integer ids, so its payloads pack into fixed
  struct layouts through the same :mod:`struct` machinery as the
  header: no JSON stringification per hop.  Packing is decided
  at encode time -- a payload outside its packed schema (extra keys,
  out-of-range ids, non-float coordinates) falls back to JSON -- and
  lossless: ``decode(encode(p, packed=True)) == p``.  The runtime
  itself never produces such a payload on the data plane
  (``tests/runtime`` spies on :func:`pack_payload` to keep it so); the
  fallback exists for foreign writers, not as a second path.

Version 3 is the only version on the wire.  Besides the frame kinds
above it carries **BUSY**, an overload-shed notification correlated to
the request it sheds (see :mod:`repro.runtime.node` -- a full
data-lane mailbox drops a frame and answers BUSY so the requester
backs off instead of waiting out a timeout); BUSY always rides as
JSON.  Two packed schemas have grown inside v3 without a bump, both
value-compatible: the map-read triple carries ``widened`` as the ring
count the store produces (0..127, in the bits of its flags byte above
the old boolean, so an old ``True`` decodes as 1), and the
``{"regions", "node_id"}`` ACK of a PUBLISH has a packed tag of its
own (an older v3 reader rejects that one frame's tag, as it would any
unknown one).  Type byte 4 and packed tags 2 and 5 are unassigned:
they belonged to a standalone map-read request that no writer ever
sent, and are rejected like any other unknown value.

Decoding is strict: bad magic, unknown version or message type, an
oversized length, malformed JSON, a malformed packed layout, or a
truncated buffer all raise :class:`ProtocolError` -- never a hang,
never a partial frame.

On a byte stream every frame follows an :data:`ENVELOPE`: the 4-byte
id of the destination endpoint, which a listener shared by many
endpoints (every node of a ``TcpTransport``, every member of a peering
shard) routes on.  The frame behind it is unchanged.
:class:`FrameDecoder` is the incremental reader of that framing, the
one every socket uses: feed it arbitrary chunks, it yields complete
``(dst, frame)`` pairs and keeps the tail buffered.  It parses in
place with offset-based ``unpack_from`` reads, copying only each
frame's payload slice, so a large coalesced chunk costs O(bytes), not
O(bytes^2).
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field
from functools import lru_cache

#: protocol magic, first on the wire
MAGIC = b"RW"

#: wire format version (bump on any incompatible header/payload change)
WIRE_VERSION = 3

#: type-byte bit marking a struct-packed (non-JSON) payload
PACKED_FLAG = 0x80

#: hard cap on one frame's payload (bytes)
MAX_PAYLOAD = 1 << 20

#: magic(2s) version(B) type(B) request_id(Q) payload_len(I)
HEADER = struct.Struct("!2sBBQI")

#: stream envelope: the destination endpoint's id, ahead of each frame
ENVELOPE = struct.Struct("!I")


@lru_cache(maxsize=512)
def _layout(fmt: str) -> struct.Struct:
    """Compiled :class:`struct.Struct` for a variadic payload layout.

    The packed codecs build their format strings from runtime lengths
    (``f"!{npoint}d"`` and friends), so ``struct.pack``/``unpack_from``
    would re-compile the format on every frame -- measurably the
    hottest slice of the per-hop codec cost.  Real traffic draws from
    a tiny set of lengths (point dims, path depths up to ``max_hops``,
    record counts), so a bounded LRU turns the compile into a dict
    hit; pathological length churn merely evicts, never grows.
    """
    return struct.Struct(fmt)


# fixed-layout segments, compiled once at import
_ROUTE_FIX = struct.Struct("!BBIB")
_FUSED_FIX = struct.Struct("!IBB")
_MAP_FIX = struct.Struct("!BIH")
_ACK_FIX = struct.Struct("!IHH")
_PUBLISH_FIX = struct.Struct("!HI")
_U16 = struct.Struct("!H")
_U8 = struct.Struct("!B")


class ProtocolError(Exception):
    """A frame violated the wire protocol (malformed, unknown, oversized)."""


class MsgType(enum.IntEnum):
    """Frame types of the overlay wire protocol."""

    JOIN = 1
    ROUTE = 2
    PUBLISH = 3
    HEARTBEAT = 5
    ACK = 6
    ERROR = 7
    #: overload shed notification (wire v3): the peer dropped the
    #: correlated request from a full data lane instead of serving it
    BUSY = 8


#: type-byte -> MsgType, resolved without an enum-constructor call
_MSG_BY_BYTE = {int(member): member for member in MsgType}


@dataclass(slots=True)
class Frame:
    """One decoded wire frame.

    A plain slots value object, created once or more per hop on the
    data path -- a frozen dataclass would route every ``__init__``
    field store through ``object.__setattr__`` and roughly double the
    construction cost for nothing (the payload dict it carries was
    always mutable anyway).
    """

    kind: MsgType
    request_id: int
    payload: dict = field(default_factory=dict)

    def reply(self, payload: dict, kind: "MsgType" = None) -> "Frame":
        """An ACK (or ``kind``) frame correlated to this request."""
        return Frame(
            kind=MsgType.ACK if kind is None else kind,
            request_id=self.request_id,
            payload=payload,
        )


# -- packed payload codecs ---------------------------------------------------
#
# Each packed payload starts with a one-byte schema tag; the rest is a
# fixed struct layout for that tag.  Integer ids ride as u32, zone/map
# cell coordinates as i32, coordinates as f64 -- all exactly the value
# domain the runtime produces, guarded at pack time so anything else
# falls back to JSON.

_TAG_ROUTE = 1        # {point, path, op, src} (+ optional map-read triple)
_TAG_ACK_ROUTE = 3    # {owner, path, hops}
_TAG_ACK_FUSED = 4    # {owner, path, hops, served_by, widened, records}
_TAG_ACK_PUBLISH = 6  # {regions, node_id}

_OP_CODES = {"route": 0, "lookup": 1}
_OP_NAMES = {code: name for name, code in _OP_CODES.items()}

#: exact key sets of the packable payload shapes (anything else -> JSON)
_ROUTE_KEYS = frozenset({"point", "path", "op", "src"})
_ROUTE_FUSED_KEYS = frozenset(
    {"point", "path", "op", "src", "querier", "level", "cell"}
)
_ACK_ROUTE_KEYS = frozenset({"owner", "path", "hops"})
_ACK_FUSED_KEYS = frozenset(
    {"owner", "path", "hops", "served_by", "widened", "records"}
)
_ACK_PUBLISH_KEYS = frozenset({"regions", "node_id"})

# Integer fields lean on struct's own C-level range checks (a value
# outside u32/i32, a non-int, or an overlong list raises struct.error
# and the encoder falls back to JSON); only floats need a Python-side
# type gate, because struct would silently coerce ints to doubles and
# break decode(encode(p)) == p.


def _pack_route(payload: dict):
    keys = payload.keys()
    if keys == _ROUTE_KEYS:
        fused = 0
    elif keys == _ROUTE_FUSED_KEYS:
        fused = 1
    else:
        return None
    opcode = _OP_CODES.get(payload["op"])
    if opcode is None:
        return None
    point = payload["point"]
    path = payload["path"]
    for x in point:
        if type(x) is not float:
            return None
    if fused:
        cell = payload["cell"]
        return _layout(
            f"!BBBIB{len(point)}dH{len(path)}IIBB{len(cell)}i"
        ).pack(
            _TAG_ROUTE,
            opcode,
            1,
            payload["src"],
            len(point),
            *point,
            len(path),
            *path,
            payload["querier"],
            payload["level"],
            len(cell),
            *cell,
        )
    return _layout(f"!BBBIB{len(point)}dH{len(path)}I").pack(
        _TAG_ROUTE,
        opcode,
        0,
        payload["src"],
        len(point),
        *point,
        len(path),
        *path,
    )


def _unpack_route(data, offset: int) -> tuple:
    opcode, fused, src, npoint = _ROUTE_FIX.unpack_from(data, offset)
    offset += 7
    op = _OP_NAMES.get(opcode)
    if op is None or fused not in (0, 1):
        raise ProtocolError(f"packed ROUTE with bad op/fused ({opcode}/{fused})")
    point = list(_layout(f"!{npoint}d").unpack_from(data, offset))
    offset += 8 * npoint
    (npath,) = _U16.unpack_from(data, offset)
    offset += 2
    path = list(_layout(f"!{npath}I").unpack_from(data, offset))
    offset += 4 * npath
    payload = {"point": point, "path": path, "op": op, "src": src}
    if fused:
        querier, level, ncell = _FUSED_FIX.unpack_from(data, offset)
        offset += 6
        payload["querier"] = querier
        payload["level"] = level
        payload["cell"] = list(_layout(f"!{ncell}i").unpack_from(data, offset))
        offset += 4 * ncell
    return payload, offset


def _pack_map_read(served_by, widened, records):
    """The map-read result triple that ends a fused lookup ACK.

    The flags byte carries "``served_by`` present" in bit 0 and
    ``widened`` -- the number of rings the store widened the read by
    -- in bits 1-7; a count outside 0..127 overflows the byte and
    falls back.  Frames written when ``widened`` was a bool set bit 1
    for ``True``, which reads back as the count 1.
    """
    return _layout(f"!BIH{len(records)}I").pack(
        (served_by is not None) | (widened << 1),
        0 if served_by is None else served_by,
        len(records),
        *records,
    )


def _unpack_map_read(data, offset: int) -> tuple:
    flags, served_by, nrecords = _MAP_FIX.unpack_from(data, offset)
    offset += 7
    records = list(_layout(f"!{nrecords}I").unpack_from(data, offset))
    offset += 4 * nrecords
    triple = {
        "served_by": served_by if flags & 1 else None,
        "widened": flags >> 1,
        "records": records,
    }
    return triple, offset


def _pack_ack(payload: dict):
    keys = payload.keys()
    if keys == _ACK_PUBLISH_KEYS:
        return _U8.pack(_TAG_ACK_PUBLISH) + _PUBLISH_FIX.pack(
            payload["regions"], payload["node_id"]
        )
    fused = keys == _ACK_FUSED_KEYS
    if not fused and keys != _ACK_ROUTE_KEYS:
        return None
    path = payload["path"]
    head = _layout(f"!BIHH{len(path)}I").pack(
        _TAG_ACK_FUSED if fused else _TAG_ACK_ROUTE,
        payload["owner"],
        payload["hops"],
        len(path),
        *path,
    )
    if not fused:
        return head
    return head + _pack_map_read(
        payload["served_by"], payload["widened"], payload["records"]
    )


def _unpack_ack(tag: int, data, offset: int) -> tuple:
    if tag == _TAG_ACK_PUBLISH:
        regions, node_id = _PUBLISH_FIX.unpack_from(data, offset)
        return {"regions": regions, "node_id": node_id}, offset + 6
    owner, hops, npath = _ACK_FIX.unpack_from(data, offset)
    offset += 8
    path = list(_layout(f"!{npath}I").unpack_from(data, offset))
    offset += 4 * npath
    payload = {"owner": owner, "path": path, "hops": hops}
    if tag == _TAG_ACK_FUSED:
        triple, offset = _unpack_map_read(data, offset)
        payload.update(triple)
    return payload, offset


_PACKERS = {
    MsgType.ROUTE: _pack_route,
    MsgType.ACK: _pack_ack,
}

_ROUTE_TAGS = frozenset({_TAG_ROUTE})
_ACK_TAGS = frozenset({_TAG_ACK_ROUTE, _TAG_ACK_FUSED, _TAG_ACK_PUBLISH})

_TAGS_FOR = {
    MsgType.ROUTE: _ROUTE_TAGS,
    MsgType.ACK: _ACK_TAGS,
}


def pack_payload(kind: MsgType, payload: dict):
    """Struct-pack ``payload`` for a data-plane ``kind``.

    Returns the packed bytes, or ``None`` when the kind has no packed
    schema or the payload does not fit it (the caller falls back to
    JSON).
    """
    packer = _PACKERS.get(kind)
    if packer is None:
        return None
    try:
        return packer(payload)
    except (struct.error, TypeError):
        # out-of-range or mistyped value: the schema doesn't fit, JSON does
        return None


def unpack_payload(kind: MsgType, data) -> dict:
    """Decode a packed payload; strict -- raises :class:`ProtocolError`."""
    try:
        (tag,) = _U8.unpack_from(data, 0)
        if tag not in _TAGS_FOR.get(kind, ()):
            raise ProtocolError(
                f"packed payload tag {tag} does not belong to {kind.name}"
            )
        if tag == _TAG_ROUTE:
            payload, end = _unpack_route(data, 1)
        else:
            payload, end = _unpack_ack(tag, data, 1)
    except struct.error as exc:
        raise ProtocolError(f"truncated packed payload: {exc}") from None
    if end != len(data):
        raise ProtocolError(
            f"{len(data) - end} trailing bytes after packed payload"
        )
    return payload


# -- frame codec -------------------------------------------------------------


def encode_frame(frame: Frame, packed: bool = False) -> bytes:
    """Serialize ``frame`` to its wire bytes.

    With ``packed=True`` the data-plane kinds (ROUTE, ACK) use
    their struct layout when the payload fits its schema; the control
    plane -- and any payload outside a schema -- rides as JSON.  Both
    encodings decode to the identical payload dict.
    """
    payload = None
    type_byte = int(frame.kind)
    if packed:
        payload = pack_payload(frame.kind, frame.payload)
        if payload is not None:
            type_byte |= PACKED_FLAG
    if payload is None:
        payload = json.dumps(
            frame.payload, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
        )
    header = HEADER.pack(
        MAGIC, WIRE_VERSION, type_byte, int(frame.request_id), len(payload)
    )
    return header + payload


def _parse_header(buffer, offset: int = 0) -> tuple:
    """Validate one frame header at ``offset``.

    Returns ``(kind, packed, request_id, length)``.
    """
    magic, version, type_byte, request_id, length = HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (want {MAGIC!r})")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )
    packed = type_byte & PACKED_FLAG
    kind = _MSG_BY_BYTE.get(type_byte & ~PACKED_FLAG)
    if kind is None:
        raise ProtocolError(f"unknown message type {type_byte}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
        )
    return kind, packed, request_id, length


def _parse_payload(kind: MsgType, packed: bool, data) -> dict:
    if packed:
        return unpack_payload(kind, data)
    try:
        payload = json.loads(bytes(data).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame payload: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_frame(buffer: bytes) -> Frame:
    """Decode exactly one frame from ``buffer`` (no trailing bytes)."""
    if len(buffer) < HEADER.size:
        raise ProtocolError(
            f"truncated frame: {len(buffer)} bytes, header needs {HEADER.size}"
        )
    kind, packed, request_id, length = _parse_header(buffer)
    end = HEADER.size + length
    if len(buffer) < end:
        raise ProtocolError(
            f"truncated frame: payload declares {length} bytes, "
            f"{len(buffer) - HEADER.size} present"
        )
    if len(buffer) > end:
        raise ProtocolError(f"{len(buffer) - end} trailing bytes after frame")
    return Frame(kind, request_id, _parse_payload(kind, packed, buffer[HEADER.size:end]))


def roundtrip_payload(kind: MsgType, payload: dict, packed: bool = False) -> dict:
    """``payload`` exactly as the receiving side would decode it.

    The in-process loopback transport uses this to model the wire's
    type fidelity (tuples become lists, keys become strings, packed
    schemas coerce their fields) without paying for the 16-byte frame
    header it would immediately re-parse.  Matches
    ``decode_frame(encode_frame(frame, packed)).payload`` for every
    payload, by construction: the same pack/unpack (or JSON) pair
    runs, only the header round trip is skipped.
    """
    if packed:
        data = pack_payload(kind, payload)
        if data is not None:
            return unpack_payload(kind, data)
    return json.loads(
        json.dumps(payload, separators=(",", ":"), sort_keys=True)
    )


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Each frame follows a 4-byte :data:`ENVELOPE` destination id.
    ``feed(chunk)`` returns a ``(dst, frame)`` pair for every frame the
    chunk completes; bytes of a not-yet-complete one stay buffered for
    the next feed.  A malformed header or payload poisons the decoder
    -- the stream is unrecoverable past that point: however it was cut
    into chunks, the frames completed before the corrupt one are
    returned first and the first feed with nothing else to return
    raises :class:`ProtocolError`.

    Parsing walks the buffer by offset (``unpack_from`` on the
    bytearray, one payload-sized copy per frame) and compacts the
    buffer once per feed, so N coalesced frames cost O(total bytes) --
    not the O(bytes^2) a per-frame full-buffer copy would.
    """

    def __init__(self):
        self._buffer = bytearray()
        #: a protocol error was found: no feed decodes anything again
        self.poisoned = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list:
        if self.poisoned:
            raise ProtocolError("decoder poisoned by an earlier protocol error")
        buffer = self._buffer
        buffer.extend(chunk)
        frames = []
        offset = 0
        prefix = ENVELOPE.size
        head = prefix + HEADER.size
        try:
            while len(buffer) - offset >= head:
                kind, packed, request_id, length = _parse_header(
                    buffer, offset + prefix
                )
                start = offset + head
                if len(buffer) - start < length:
                    break
                payload = _parse_payload(
                    kind, packed, bytes(buffer[start:start + length])
                )
                dst = ENVELOPE.unpack_from(buffer, offset)[0]
                frames.append((dst, Frame(kind, request_id, payload)))
                offset = start + length
        except ProtocolError:
            self.poisoned = True
            if not frames:
                raise
        finally:
            if offset:
                del buffer[:offset]
        return frames
