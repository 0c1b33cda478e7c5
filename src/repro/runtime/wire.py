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
  points, paths and integer ids, so its payloads pack into struct
  layouts through the same :mod:`struct` machinery as the header: no
  JSON stringification per hop.  Each of the five packed shapes (ROUTE,
  fused ROUTE, route ACK, fused ACK, publish ACK) compiles one
  :class:`struct.Struct` per length tuple into a bounded shape table
  keyed by integers, so a payload packs with one ``pack`` call and
  unpacks with one ``unpack_from`` once its lengths are read.
  Packing is decided
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
place with offset-based ``unpack_from`` reads -- a packed payload is
decoded straight out of the stream buffer, a JSON one copied once --
so a large coalesced chunk costs O(bytes), not O(bytes^2).
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass

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

#: read once: an enum member lookup on the class costs as much as a
#: small dict probe, and every reply names this one
_ACK = MsgType.ACK


@dataclass(slots=True, init=False)
class Frame:
    """One decoded wire frame.

    A plain slots value object, created once or more per hop on the
    data path, with a plain positional ``__init__``: a frozen
    dataclass would route every field store through
    ``object.__setattr__`` for nothing (the payload dict it carries
    was always mutable anyway).  ``Frame(kind, request_id)`` carries
    an empty payload.
    """

    kind: MsgType
    request_id: int
    payload: dict

    def __init__(self, kind: MsgType, request_id: int, payload: dict = None):
        self.kind = kind
        self.request_id = request_id
        self.payload = {} if payload is None else payload

    def reply(self, payload: dict, kind: "MsgType" = None) -> "Frame":
        """An ACK (or ``kind``) frame correlated to this request."""
        return Frame(_ACK if kind is None else kind, self.request_id, payload)


# -- packed payload codecs ---------------------------------------------------
#
# Each packed payload starts with a one-byte schema tag; the rest is a
# struct layout for that tag.  Integer ids ride as u32, zone/map cell
# coordinates as i32, coordinates as f64 -- all exactly the value
# domain the runtime produces, guarded at pack time so anything else
# falls back to JSON.

_TAG_ROUTE = 1        # {point, path, op, src} (+ optional map-read triple)
_TAG_ACK_ROUTE = 3    # {owner, path, hops}
_TAG_ACK_FUSED = 4    # {owner, path, hops, served_by, widened, records}
_TAG_ACK_PUBLISH = 6  # {regions, node_id}

_OP_CODES = {"route": 0, "lookup": 1}
_OP_NAMES = {code: name for name, code in _OP_CODES.items()}

# The shape table: one layout per packed payload shape, the whole
# payload tag included, so a frame packs with one ``Struct.pack`` and
# unpacks with one ``unpack_from``.  Four shapes carry lengths; a
# shape key is ``shape | n1 << 3 | n2 << 19 | n3 << 35`` -- the shape
# id, then its lengths in 16-bit slots, in wire order.  The publish
# ACK has none and is compiled once, below.
_ROUTE_SHAPE = 0        # point dims, path length
_FUSED_ROUTE_SHAPE = 1  # point dims, path length, cell dims
_ACK_SHAPE = 2          # path length
_FUSED_ACK_SHAPE = 3    # path length, record count

_SHAPE_FORMATS = {
    # tag op fused src npoint point npath path
    _ROUTE_SHAPE: "!BBBIB{}dH{}I",
    # ... querier level ncell cell
    _FUSED_ROUTE_SHAPE: "!BBBIB{}dH{}IIBB{}i",
    # tag owner hops npath path
    _ACK_SHAPE: "!BIHH{}I",
    # ... flags served_by nrecords records (the map-read triple)
    _FUSED_ACK_SHAPE: "!BIHH{}IBIH{}I",
}

#: tag regions node_id
_PUBLISH_ACK = struct.Struct("!BHI")

#: compiled shapes held before the oldest is evicted
MAX_SHAPES = 512

#: shape key -> its compiled :class:`struct.Struct`
_SHAPES: dict = {}


def _shape(key: int) -> struct.Struct:
    """The compiled :class:`struct.Struct` of the shape ``key`` names.

    Each length tuple of a shape compiles once; the hot paths read
    :data:`_SHAPES` themselves and call this only on a miss.  Real
    traffic draws from a tiny set of lengths (point dims, path depths
    up to ``max_hops``, record counts), so the table stays small;
    pathological length churn evicts the oldest shape once
    :data:`MAX_SHAPES` are held, it never grows past that.  A length
    too wide for its 16-bit slot spills into the next one and names
    another shape, but it also overflows its own u8/u16 count field,
    so packing raises :class:`struct.error` either way and the payload
    falls back to JSON.
    """
    shape = _SHAPES.get(key)
    if shape is None:
        if len(_SHAPES) >= MAX_SHAPES:
            del _SHAPES[next(iter(_SHAPES))]
        lengths = (key >> 3 & 0xFFFF, key >> 19 & 0xFFFF, key >> 35 & 0xFFFF)
        shape = _SHAPES[key] = struct.Struct(
            _SHAPE_FORMATS[key & 7].format(*lengths)
        )
    return shape


# A packable payload has exactly its schema's keys: the packers pick a
# schema by the payload's size and read every key of it, so a missing
# key raises KeyError -- and a dict of n keys holding all n schema
# keys holds no other.  Integer fields lean on struct's own C-level
# range checks (a value outside u32/i32, a non-int, or an overlong
# list raises struct.error); only floats need a Python-side type
# gate, because struct would silently coerce ints to doubles and
# break decode(encode(p)) == p.  Each of these makes the payload fall
# back to JSON.


def _pack_route(payload: dict):
    """{point, path, op, src}, or the same plus the map-read request
    {querier, level, cell} a lookup carries to the serving node."""
    size = len(payload)
    if size != 4 and size != 7:
        return None
    opcode = _OP_CODES.get(payload["op"])
    if opcode is None:
        return None
    point = payload["point"]
    path = payload["path"]
    src = payload["src"]
    for x in point:
        if type(x) is not float:
            return None
    npoint = len(point)
    npath = len(path)
    if size == 7:
        cell = payload["cell"]
        key = _FUSED_ROUTE_SHAPE | npoint << 3 | npath << 19 | len(cell) << 35
        return (_SHAPES.get(key) or _shape(key)).pack(
            _TAG_ROUTE,
            opcode,
            1,
            src,
            npoint,
            *point,
            npath,
            *path,
            payload["querier"],
            payload["level"],
            len(cell),
            *cell,
        )
    key = npoint << 3 | npath << 19
    return (_SHAPES.get(key) or _shape(key)).pack(
        _TAG_ROUTE, opcode, 0, src, npoint, *point, npath, *path
    )


def _pack_ack(payload: dict):
    """A route ACK, a fused lookup ACK, or a publish ACK.

    The fused ACK ends in the map-read triple, whose flags byte
    carries "``served_by`` present" in bit 0 and ``widened`` -- the
    number of rings the store widened the read by -- in bits 1-7; a
    count outside 0..127 overflows the byte and falls back.  Frames
    written when ``widened`` was a bool set bit 1 for ``True``, which
    reads back as the count 1.
    """
    size = len(payload)
    if size == 3:
        path = payload["path"]
        npath = len(path)
        key = _ACK_SHAPE | npath << 3
        return (_SHAPES.get(key) or _shape(key)).pack(
            _TAG_ACK_ROUTE, payload["owner"], payload["hops"], npath, *path
        )
    if size == 6:
        path = payload["path"]
        npath = len(path)
        served_by = payload["served_by"]
        records = payload["records"]
        key = _FUSED_ACK_SHAPE | npath << 3 | len(records) << 19
        return (_SHAPES.get(key) or _shape(key)).pack(
            _TAG_ACK_FUSED,
            payload["owner"],
            payload["hops"],
            npath,
            *path,
            (served_by is not None) | (payload["widened"] << 1),
            0 if served_by is None else served_by,
            len(records),
            *records,
        )
    if size == 2:
        return _PUBLISH_ACK.pack(
            _TAG_ACK_PUBLISH, payload["regions"], payload["node_id"]
        )
    return None


def _truncated(size: int, need: int) -> ProtocolError:
    return ProtocolError(
        f"truncated packed payload: {size} bytes, its layout needs {need}"
    )


def _misfit(size: int, need: int) -> ProtocolError:
    """A payload of ``size`` bytes whose layout needs ``need``."""
    if need > size:
        return _truncated(size, need)
    return ProtocolError(f"{size - need} trailing bytes after packed payload")


# The unpackers read a payload of ``size`` bytes at ``start`` of
# ``data`` -- a whole packed payload, or a frame inside a stream
# buffer -- and never past it: every length they read to find the
# shape is bounds-checked against ``size`` first.


def _unpack_route(data, start: int, size: int) -> dict:
    if size < 8:
        raise _truncated(size, 8)
    opcode = data[start + 1]
    fused = data[start + 2]
    op = _OP_NAMES.get(opcode)
    if op is None or fused > 1:
        raise ProtocolError(f"packed ROUTE with bad op/fused ({opcode}/{fused})")
    npoint = data[start + 7]
    at = 8 + 8 * npoint  # npath
    if size < at + 2:
        raise _truncated(size, at + 2)
    npath = data[start + at] << 8 | data[start + at + 1]
    if fused:
        at += 7 + 4 * npath  # ncell, behind the path, querier and level
        if size <= at:
            raise _truncated(size, at + 1)
        key = _FUSED_ROUTE_SHAPE | npoint << 3 | npath << 19 | data[start + at] << 35
    else:
        key = npoint << 3 | npath << 19
    shape = _SHAPES.get(key) or _shape(key)
    if shape.size != size:
        raise _misfit(size, shape.size)
    values = shape.unpack_from(data, start)
    end = 6 + npoint + npath
    payload = {
        "point": list(values[5 : 5 + npoint]),
        "path": list(values[6 + npoint : end]),
        "op": op,
        "src": values[3],
    }
    if fused:
        payload["querier"] = values[end]
        payload["level"] = values[end + 1]
        payload["cell"] = list(values[end + 3 :])
    return payload


def _unpack_ack(tag: int, data, start: int, size: int) -> dict:
    if tag == _TAG_ACK_PUBLISH:
        if size != _PUBLISH_ACK.size:
            raise _misfit(size, _PUBLISH_ACK.size)
        _, regions, node_id = _PUBLISH_ACK.unpack_from(data, start)
        return {"regions": regions, "node_id": node_id}
    if size < 9:
        raise _truncated(size, 9)
    npath = data[start + 7] << 8 | data[start + 8]
    if tag == _TAG_ACK_FUSED:
        at = 14 + 4 * npath  # nrecords, behind the path, flags and served_by
        if size < at + 2:
            raise _truncated(size, at + 2)
        nrecords = data[start + at] << 8 | data[start + at + 1]
        key = _FUSED_ACK_SHAPE | npath << 3 | nrecords << 19
    else:
        key = _ACK_SHAPE | npath << 3
    shape = _SHAPES.get(key) or _shape(key)
    if shape.size != size:
        raise _misfit(size, shape.size)
    values = shape.unpack_from(data, start)
    end = 4 + npath
    payload = {"owner": values[1], "path": list(values[4:end]), "hops": values[2]}
    if tag == _TAG_ACK_FUSED:
        flags = values[end]
        payload["served_by"] = values[end + 1] if flags & 1 else None
        payload["widened"] = flags >> 1
        payload["records"] = list(values[end + 3 :])
    return payload


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
    except (struct.error, TypeError, KeyError):
        # out-of-range or mistyped value: the schema doesn't fit, JSON does
        return None


def unpack_payload(kind: MsgType, data, start: int = 0, end: int = None) -> dict:
    """Decode a packed payload; strict -- raises :class:`ProtocolError`.

    Reads ``data[start:end]`` (all of ``data`` by default) in place:
    a frame inside a stream buffer decodes without a copy.
    """
    if end is None:
        end = len(data)
    if start == end:
        raise _truncated(0, 1)
    tag = data[start]
    if tag not in _TAGS_FOR.get(kind, ()):
        raise ProtocolError(
            f"packed payload tag {tag} does not belong to {kind.name}"
        )
    if tag == _TAG_ROUTE:
        return _unpack_route(data, start, end - start)
    return _unpack_ack(tag, data, start, end - start)


# -- frame codec -------------------------------------------------------------

def _oversized(size: int) -> ProtocolError:
    return ProtocolError(
        f"payload of {size} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
    )


def encode_frame(frame: Frame, packed: bool = False) -> bytes:
    """Serialize ``frame`` to its wire bytes.

    With ``packed=True`` the data-plane kinds (ROUTE, ACK) use
    their struct layout when the payload fits its schema; the control
    plane -- and any payload outside a schema -- rides as JSON.  Both
    encodings decode to the identical payload dict.
    """
    kind = frame.kind
    type_byte = kind
    payload = None
    if packed:
        payload = pack_payload(kind, frame.payload)
        if payload is not None:
            type_byte = kind | PACKED_FLAG
    if payload is None:
        payload = json.dumps(
            frame.payload, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    if len(payload) > MAX_PAYLOAD:
        raise _oversized(len(payload))
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


def _parse_payload(kind: MsgType, packed: bool, buffer, start: int, end: int) -> dict:
    """The payload at ``buffer[start:end]``; a packed one is read in place."""
    if packed:
        return unpack_payload(kind, buffer, start, end)
    try:
        payload = json.loads(str(buffer[start:end], "utf-8"))
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
    return Frame(kind, request_id, _parse_payload(kind, packed, buffer, HEADER.size, end))


def roundtrip_payload(kind: MsgType, payload: dict, packed: bool = False) -> dict:
    """``payload`` exactly as the receiving side would decode it.

    The in-process loopback transport uses this to model the wire's
    type fidelity (tuples become lists, keys become strings, packed
    schemas coerce their fields) without paying for the 16-byte frame
    header it would immediately re-parse.  Matches
    ``decode_frame(encode_frame(frame, packed)).payload`` for every
    payload, by construction: the same pack/unpack (or JSON) pair
    runs, only the header round trip is skipped.  It refuses what
    :func:`encode_frame` refuses, with the same exception: a payload
    JSON cannot carry, or one over :data:`MAX_PAYLOAD`.
    """
    if packed:
        data = pack_payload(kind, payload)
        if data is not None:
            if len(data) > MAX_PAYLOAD:
                raise _oversized(len(data))
            return unpack_payload(kind, data)
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    if len(text) > MAX_PAYLOAD:  # ensure_ascii: one byte a character
        raise _oversized(len(text))
    return json.loads(text)


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
    bytearray; a packed payload is read in place, a JSON one copied
    once to decode it) and compacts the buffer once per feed, so N
    coalesced frames cost O(total bytes) -- not the O(bytes^2) a
    per-frame full-buffer copy would.
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
                end = start + length
                if len(buffer) < end:
                    break
                payload = _parse_payload(kind, packed, buffer, start, end)
                dst = ENVELOPE.unpack_from(buffer, offset)[0]
                frames.append((dst, Frame(kind, request_id, payload)))
                offset = end
        except ProtocolError:
            self.poisoned = True
            if not frames:
                raise
        finally:
            if offset:
                del buffer[:offset]
        return frames
