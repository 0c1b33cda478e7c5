"""Wire codec: roundtrips, fuzzed corruption, incremental reassembly."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.wire import (
    ENVELOPE,
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    PACKED_FLAG,
    WIRE_VERSION,
    Frame,
    FrameDecoder,
    MsgType,
    ProtocolError,
    decode_frame,
    encode_frame,
    pack_payload,
    roundtrip_payload,
    unpack_payload,
)

SAMPLE_PAYLOADS = {
    MsgType.JOIN: {"src": "joiner:3", "capacity": 1.0},
    MsgType.ROUTE: {"point": [0.25, 0.75], "path": [0, 4, 9], "op": "lookup"},
    MsgType.PUBLISH: {"src": 12},
    MsgType.HEARTBEAT: {"seq": 41, "src": 2},
    MsgType.ACK: {"owner": 5, "path": [1, 5], "hops": 1},
    MsgType.ERROR: {"error": "route stuck after 3 hops"},
    MsgType.BUSY: {"from": 5, "shed": "ROUTE"},
}


def enveloped(frames, dst=0, packed=False) -> bytes:
    """``frames`` as a stream carries them: each behind its envelope."""
    return b"".join(ENVELOPE.pack(dst) + encode_frame(f, packed) for f in frames)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", list(MsgType))
    def test_every_frame_type_roundtrips(self, kind):
        frame = Frame(kind, request_id=0xDEADBEEF, payload=SAMPLE_PAYLOADS[kind])
        decoded = decode_frame(encode_frame(frame))
        assert decoded.kind is kind
        assert decoded.request_id == 0xDEADBEEF
        assert decoded.payload == SAMPLE_PAYLOADS[kind]

    def test_empty_payload(self):
        decoded = decode_frame(encode_frame(Frame(MsgType.HEARTBEAT, 1)))
        assert decoded.payload == {}

    def test_reply_correlates_request_id(self):
        request = Frame(MsgType.PUBLISH, 99, {"src": 3})
        reply = request.reply({"regions": 2})
        assert reply.kind is MsgType.ACK
        assert reply.request_id == 99
        error = request.reply({"error": "boom"}, kind=MsgType.ERROR)
        assert error.kind is MsgType.ERROR


class TestMalformedFrames:
    def test_truncated_at_every_prefix_length(self):
        data = encode_frame(Frame(MsgType.ROUTE, 7, SAMPLE_PAYLOADS[MsgType.ROUTE]))
        for cut in range(len(data)):
            with pytest.raises(ProtocolError, match="truncated"):
                decode_frame(data[:cut])

    def test_unknown_message_type(self):
        """4 was a standalone LOOKUP request; it is as unknown as 250."""
        for type_byte in (250, 4, 4 | PACKED_FLAG):
            bad = HEADER.pack(MAGIC, WIRE_VERSION, type_byte, 1, 2) + b"{}"
            with pytest.raises(
                ProtocolError, match=f"unknown message type {type_byte}"
            ):
                decode_frame(bad)

    def test_bad_magic(self):
        bad = HEADER.pack(b"XX", WIRE_VERSION, int(MsgType.ACK), 1, 2) + b"{}"
        with pytest.raises(ProtocolError, match="bad magic"):
            decode_frame(bad)

    @pytest.mark.parametrize("version", [1, 2, WIRE_VERSION + 1])
    @pytest.mark.parametrize(
        "decode",
        [decode_frame, lambda data: FrameDecoder().feed(ENVELOPE.pack(0) + data)],
        ids=["decode_frame", "FrameDecoder.feed"],
    )
    def test_any_other_wire_version_is_rejected(self, version, decode):
        """A reader accepts exactly WIRE_VERSION: the v1/v2 frames older
        builds wrote and a newer writer's are refused alike."""
        body = b'{"seq":1}'
        bad = HEADER.pack(MAGIC, version, int(MsgType.ACK), 7, len(body)) + body
        with pytest.raises(ProtocolError, match="unsupported wire version"):
            decode(bad)

    def test_busy_frame_is_unknown_to_v2_readers_only_by_type(self):
        """BUSY is the one v3 addition: its *type byte* is what a v2
        reader would reject; nothing about the header layout moved."""
        frame = Frame(MsgType.BUSY, 3, SAMPLE_PAYLOADS[MsgType.BUSY])
        data = encode_frame(frame)
        magic, version, type_byte, request_id, length = HEADER.unpack(
            data[: HEADER.size]
        )
        assert magic == MAGIC
        assert version == WIRE_VERSION == 3
        assert type_byte == int(MsgType.BUSY)
        assert not type_byte & PACKED_FLAG  # BUSY always rides as JSON

    def test_oversized_declared_length(self):
        bad = HEADER.pack(
            MAGIC, WIRE_VERSION, int(MsgType.ACK), 1, MAX_PAYLOAD + 1
        )
        with pytest.raises(ProtocolError, match="exceeds MAX_PAYLOAD"):
            decode_frame(bad + b"x" * 16)

    def test_oversized_payload_refused_at_encode(self):
        huge = {"blob": "x" * (MAX_PAYLOAD + 16)}
        with pytest.raises(ProtocolError, match="exceeds MAX_PAYLOAD"):
            encode_frame(Frame(MsgType.PUBLISH, 1, huge))

    def test_trailing_garbage(self):
        data = encode_frame(Frame(MsgType.ACK, 1, {"ok": True}))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_frame(data + b"\x00")

    def test_non_object_payload(self):
        body = json.dumps([1, 2, 3]).encode()
        bad = HEADER.pack(MAGIC, WIRE_VERSION, int(MsgType.ACK), 1, len(body)) + body
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(bad)

    def test_malformed_json_payload(self):
        body = b"{not json"
        bad = HEADER.pack(MAGIC, WIRE_VERSION, int(MsgType.ACK), 1, len(body)) + body
        with pytest.raises(ProtocolError, match="malformed"):
            decode_frame(bad)

    def test_corrupt_bytes_never_hang(self):
        """Random corruptions either decode or raise -- promptly, always."""
        import numpy as np

        rng = np.random.default_rng(0)
        data = bytearray(
            encode_frame(Frame(MsgType.ROUTE, 3, SAMPLE_PAYLOADS[MsgType.ROUTE]))
        )
        for _ in range(200):
            corrupt = bytearray(data)
            position = int(rng.integers(0, len(corrupt)))
            corrupt[position] ^= int(rng.integers(1, 256))
            try:
                decode_frame(bytes(corrupt))
            except ProtocolError:
                pass


#: payloads exactly matching the packed schemas of the data plane, with
#: ``widened`` as the ring count ``SoftStateStore.lookup`` produces
PACKED_PAYLOADS = [
    (MsgType.ROUTE, {"point": [0.25, 0.75], "path": [0, 4, 9], "op": "lookup", "src": 3}),
    (MsgType.ROUTE, {"point": [0.5, 0.5], "path": [7], "op": "route", "src": 7}),
    (
        MsgType.ROUTE,
        {
            "point": [0.1, 0.9],
            "path": [2, 5],
            "op": "lookup",
            "src": 2,
            "querier": 2,
            "level": 1,
            "cell": [0, 1],
        },
    ),
    (
        # a map read on behalf of a querier other than the routing source
        MsgType.ROUTE,
        {
            "point": [0.6, 0.2],
            "path": [7, 3],
            "op": "lookup",
            "src": 3,
            "querier": 7,
            "level": 2,
            "cell": [1, 3],
        },
    ),
    (MsgType.ACK, {"owner": 5, "path": [1, 5], "hops": 1}),
    (
        MsgType.ACK,
        {
            "owner": 5,
            "path": [1, 5],
            "hops": 1,
            "served_by": 9,
            "widened": 2,
            "records": [3, 9, 11],
        },
    ),
    (
        MsgType.ACK,
        {
            "owner": 5, "path": [5], "hops": 0,
            "served_by": None, "widened": 0, "records": [],
        },
    ),
    (
        MsgType.ACK,
        {
            "owner": 4, "path": [1, 4], "hops": 1,
            "served_by": 4, "widened": 127, "records": [4],
        },
    ),
    (MsgType.ACK, {"regions": 3, "node_id": 12}),
]


#: one payload of each of the five packed shapes
PACKED_SHAPES = {
    "route": PACKED_PAYLOADS[0],
    "fused route": PACKED_PAYLOADS[2],
    "ack": PACKED_PAYLOADS[4],
    "fused ack": PACKED_PAYLOADS[5],
    "publish ack": PACKED_PAYLOADS[8],
}


def packed_frame(kind, data: bytes, request_id=1) -> bytes:
    """A v3 frame carrying ``data`` as its packed payload, as is."""
    type_byte = int(kind) | PACKED_FLAG
    return HEADER.pack(MAGIC, WIRE_VERSION, type_byte, request_id, len(data)) + data


def feed_one(kind, data: bytes) -> list:
    """Decode ``data`` in place in a stream buffer, a valid frame
    right behind it: a reader overrunning the payload finds bytes."""
    next_frame = Frame(MsgType.ACK, 2, {"owner": 1, "path": [1], "hops": 0})
    stream = ENVELOPE.pack(0) + packed_frame(kind, data) + enveloped([next_frame], packed=True)
    return FrameDecoder().feed(stream)


#: the two strict readers of a packed payload
STRICT_DECODES = (unpack_payload, feed_one)


class TestPackedEncoding:
    @pytest.mark.parametrize("kind,payload", PACKED_PAYLOADS)
    def test_packed_roundtrip_is_lossless(self, kind, payload):
        frame = Frame(kind, 42, payload)
        data = encode_frame(frame, packed=True)
        assert data[3] & PACKED_FLAG, "schema-conformant payload must pack"
        decoded = decode_frame(data)
        assert decoded.kind is kind
        assert decoded.request_id == 42
        assert decoded.payload == payload

    @pytest.mark.parametrize("kind,payload", PACKED_PAYLOADS)
    def test_packed_decodes_same_as_json(self, kind, payload):
        """Both encodings of one frame must decode identically."""
        frame = Frame(kind, 7, payload)
        via_packed = decode_frame(encode_frame(frame, packed=True))
        via_json = decode_frame(encode_frame(frame, packed=False))
        assert via_packed == via_json

    @pytest.mark.parametrize("kind,payload", PACKED_PAYLOADS)
    def test_roundtrip_payload_matches_codec(self, kind, payload):
        """The loopback shortcut equals the full encode/decode pair."""
        for packed in (False, True):
            full = decode_frame(
                encode_frame(Frame(kind, 1, payload), packed=packed)
            ).payload
            assert roundtrip_payload(kind, payload, packed) == full

    def test_packed_is_smaller_than_json(self):
        kind, payload = PACKED_PAYLOADS[0]
        frame = Frame(kind, 1, payload)
        assert len(encode_frame(frame, packed=True)) < len(encode_frame(frame))

    @pytest.mark.parametrize(
        "payload",
        [
            # extra key outside the schema
            {"point": [0.5], "path": [1], "op": "route", "src": 1, "x": 0},
            # unknown op string
            {"point": [0.5], "path": [1], "op": "probe", "src": 1},
            # int coordinate: struct would coerce it and break losslessness
            {"point": [1, 0.5], "path": [1], "op": "route", "src": 1},
            # node id outside u32
            {"point": [0.5], "path": [1 << 40], "op": "route", "src": 1},
            # non-int in an id list
            {"point": [0.5], "path": ["a"], "op": "route", "src": 1},
        ],
    )
    def test_off_schema_payload_falls_back_to_json(self, payload):
        frame = Frame(MsgType.ROUTE, 1, payload)
        data = encode_frame(frame, packed=True)
        assert not (data[3] & PACKED_FLAG)
        assert decode_frame(data).payload == payload

    @pytest.mark.parametrize("widened", [-1, 128, 1.0, None])
    def test_ring_count_outside_the_flags_byte_falls_back(self, widened):
        payload = {
            "owner": 5, "path": [1, 5], "hops": 1,
            "served_by": 9, "widened": widened, "records": [3],
        }
        data = encode_frame(Frame(MsgType.ACK, 1, payload), packed=True)
        assert not (data[3] & PACKED_FLAG)
        assert decode_frame(data).payload == payload

    def test_v3_frames_with_the_bool_widened_flag_still_decode(self):
        """Golden bytes from the writer that packed ``widened`` as a
        bool in bit 1 of the flags byte: ``True`` reads back as one
        ring -- equal payloads, same frame length."""
        fused = bytes.fromhex(
            "52570386000000000000002a00000024"
            "0400000005000100020000000100000005"
            "0300000009000300000003000000090000000b"
        )
        payload = {
            "owner": 5, "path": [1, 5], "hops": 1,
            "served_by": 9, "widened": True, "records": [3, 9, 11],
        }
        decoded = decode_frame(fused)
        assert decoded.kind is MsgType.ACK and decoded.request_id == 42
        assert decoded.payload == payload
        assert decoded.payload["widened"] == 1
        assert encode_frame(Frame(MsgType.ACK, 42, payload), packed=True) == fused

    def test_control_kinds_never_pack(self):
        for kind in (MsgType.JOIN, MsgType.PUBLISH, MsgType.HEARTBEAT, MsgType.ERROR):
            assert pack_payload(kind, SAMPLE_PAYLOADS[kind]) is None
            data = encode_frame(Frame(kind, 1, SAMPLE_PAYLOADS[kind]), packed=True)
            assert not (data[3] & PACKED_FLAG)

    def test_wrong_kind_tag_rejected(self):
        """A payload smuggled under the other data-plane kind's header
        must not parse, whatever its shape."""
        for kind, payload in PACKED_SHAPES.values():
            other = MsgType.ACK if kind is MsgType.ROUTE else MsgType.ROUTE
            data = pack_payload(kind, payload)
            for decode in STRICT_DECODES:
                with pytest.raises(ProtocolError, match="does not belong"):
                    decode(other, data)

    def test_trailing_bytes_rejected(self):
        for kind, payload in PACKED_SHAPES.values():
            data = pack_payload(kind, payload)
            for decode in STRICT_DECODES:
                with pytest.raises(ProtocolError, match="trailing"):
                    decode(kind, data + b"\x00")

    def test_truncated_packed_payload_rejected(self):
        """Every cut of every shape is refused; in a stream the bytes
        behind the cut belong to the next frame and are never read."""
        for kind, payload in PACKED_SHAPES.values():
            data = pack_payload(kind, payload)
            for cut in range(len(data)):
                for decode in STRICT_DECODES:
                    with pytest.raises(ProtocolError, match="truncated"):
                        decode(kind, data[:cut])

    @pytest.mark.parametrize("name", ["route", "fused route"])
    @pytest.mark.parametrize(
        "position,value", [(1, 2), (1, 255), (2, 2), (2, 255)],
        ids=["op-2", "op-255", "fused-2", "fused-255"],
    )  # fmt: skip
    def test_bad_op_or_fused_byte_rejected(self, name, position, value):
        """Byte 1 is the op code (0 route, 1 lookup), byte 2 the fused
        flag (0 or 1): anything else is refused on both paths."""
        kind, payload = PACKED_SHAPES[name]
        data = bytearray(pack_payload(kind, payload))
        data[position] = value
        for decode in STRICT_DECODES:
            with pytest.raises(ProtocolError, match="bad op/fused"):
                decode(kind, bytes(data))

    def test_corrupt_packed_bytes_never_hang(self):
        """Mirror of the JSON fuzz: corruptions decode or raise, promptly."""
        import numpy as np

        rng = np.random.default_rng(1)
        for kind, payload in PACKED_PAYLOADS:
            data = bytearray(encode_frame(Frame(kind, 3, payload), packed=True))
            for _ in range(200):
                corrupt = bytearray(data)
                position = int(rng.integers(0, len(corrupt)))
                corrupt[position] ^= int(rng.integers(1, 256))
                try:
                    decode_frame(bytes(corrupt))
                except ProtocolError:
                    pass


#: ``(kind, request_id, payload, packed, frame hex)``: the exact wire
#: bytes of each packed shape, plus one payload off every schema
GOLDEN_FRAMES = [
    (
        MsgType.ROUTE, 7,
        {"point": [0.25, 0.75], "path": [0, 4, 9], "op": "lookup", "src": 3},
        True,
        "5257038200000000000000070000002601010000000003023fd00000000000003fe8"
        "0000000000000003000000000000000400000009",
    ),
    (
        MsgType.ROUTE, 8,
        {
            "point": [0.1, 0.9, 0.5], "path": [2, 5], "op": "route", "src": 2,
            "querier": 6, "level": 2, "cell": [1, -3, 2],
        },
        True,
        "5257038200000000000000080000003c01000100000002033fb999999999999a3fec"
        "cccccccccccd3fe00000000000000002000000020000000500000006020300000001"
        "fffffffd00000002",
    ),
    (
        MsgType.ACK, 9, {"owner": 5, "path": [1, 5], "hops": 1}, True,
        "525703860000000000000009000000110300000005000100020000000100000005",
    ),
    (
        MsgType.ACK, 10,
        {
            "owner": 5, "path": [1, 5], "hops": 1,
            "served_by": None, "widened": 2, "records": [4, 9],
        },
        True,
        "52570386000000000000000a00000020040000000500010002000000010000000504"
        "0000000000020000000400000009",
    ),
    (
        MsgType.ACK, 11, {"regions": 3, "node_id": 12}, True,
        "52570386000000000000000b000000070600030000000c",
    ),
    (
        # an int coordinate: off the ROUTE schema, so it rides as JSON
        MsgType.ROUTE, 12, {"point": [1, 0.5], "path": [1], "op": "route", "src": 1},
        True,
        "52570302000000000000000c000000317b226f70223a22726f757465222c2270617468"
        "223a5b315d2c22706f696e74223a5b312c302e355d2c22737263223a317d",
    ),
]  # fmt: skip


class TestGoldenFrames:
    """The wire bytes of every packed shape, pinned: a codec change that
    moves one byte fails here before it reaches a peer."""

    @pytest.mark.parametrize(
        "kind,request_id,payload,packed,frame", GOLDEN_FRAMES,
        ids=["route", "fused route", "ack", "fused ack", "publish ack", "json"],
    )  # fmt: skip
    def test_golden_frame(self, kind, request_id, payload, packed, frame):
        data = bytes.fromhex(frame)
        assert encode_frame(Frame(kind, request_id, payload), packed) == data
        decoded = decode_frame(data)
        assert (decoded.kind, decoded.request_id) == (kind, request_id)
        assert decoded.payload == payload
        assert FrameDecoder().feed(ENVELOPE.pack(3) + data) == [(3, decoded)]
        assert roundtrip_payload(kind, payload, packed) == payload


class TestFrameDecoder:
    def test_single_byte_feeds(self):
        frames = [
            Frame(MsgType.JOIN, 1, {"src": "joiner:1"}),
            Frame(MsgType.ACK, 1, {"node_id": 4, "host": 17}),
            Frame(MsgType.HEARTBEAT, 2, {"seq": 0}),
        ]
        stream = enveloped(frames, dst=7)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert [dst for dst, _ in out] == [7, 7, 7]
        assert [f.kind for _, f in out] == [f.kind for f in frames]
        assert [f.payload for _, f in out] == [f.payload for f in frames]
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        frames = [Frame(MsgType.ACK, i, {"i": i}) for i in range(5)]
        decoder = FrameDecoder()
        out = decoder.feed(enveloped(frames))
        assert [f.payload["i"] for _, f in out] == [0, 1, 2, 3, 4]

    def test_partial_tail_stays_buffered(self):
        data = enveloped([Frame(MsgType.ACK, 1, {"ok": True})])
        decoder = FrameDecoder()
        assert decoder.feed(data + data[:5]) != []
        assert decoder.pending_bytes == 5
        assert decoder.feed(data[5:])[0][1].payload == {"ok": True}

    def test_poisoned_after_protocol_error(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(ENVELOPE.pack(0) + b"XX" + b"\x00" * 32)
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(b"")

    def test_frames_before_a_corrupt_one_in_the_same_chunk_are_returned(self):
        """good + good + bad in one feed: both frames come back, the
        error is the next feed's -- exactly as byte-by-byte feeding
        would have it."""
        good = [Frame(MsgType.ACK, i, {"i": i}) for i in (1, 2)]
        stream = enveloped(good) + ENVELOPE.pack(0) + b"XX" + b"\x00" * 32
        decoder = FrameDecoder()
        assert decoder.feed(stream) == [(0, f) for f in good]
        assert decoder.poisoned
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(b"")
        trickled, out = FrameDecoder(), []
        with pytest.raises(ProtocolError, match="bad magic"):
            for i in range(len(stream)):
                out.extend(trickled.feed(stream[i : i + 1]))
        assert out == [(0, f) for f in good]

    def test_header_size_is_stable(self):
        """The frame header is part of the versioned wire contract."""
        assert HEADER.size == 16
        assert struct.calcsize("!2sBBQI") == 16

    def test_large_coalesced_chunk_parses_in_linear_time(self):
        """One big feed must cost O(bytes), not O(bytes^2).

        5000 x ~2KB frames arrive as a single coalesced chunk -- the
        shape a fast sender produces on a TCP stream.  A decoder that
        re-slices the whole remaining buffer per frame would copy
        ~25GB here and blow far past the (already generous) bound; the
        offset-walking parse finishes in well under a second.
        """
        import time

        frames = [
            Frame(MsgType.ACK, i, {"blob": "x" * 2000, "i": i})
            for i in range(5000)
        ]
        chunk = enveloped(frames)
        decoder = FrameDecoder()
        began = time.perf_counter()
        out = decoder.feed(chunk)
        elapsed = time.perf_counter() - began
        assert len(out) == 5000
        assert [f.payload["i"] for _, f in out[:3]] == [0, 1, 2]
        assert decoder.pending_bytes == 0
        assert elapsed < 5.0, f"coalesced feed took {elapsed:.2f}s"


#: every frame kind as JSON rides, plus every packable data-plane shape
STREAM_POOL = list(SAMPLE_PAYLOADS.items()) + [
    (MsgType.ROUTE, {"point": [0.25, 0.75], "path": [0, 4, 9], "op": "route", "src": 3}),
    (
        MsgType.ROUTE,
        {
            "point": [0.5, 0.125], "path": [7], "op": "lookup", "src": 7,
            "querier": 7, "level": 2, "cell": [1, -3],
        },
    ),
    (MsgType.ACK, {"owner": 5, "path": [1, 5], "hops": 1}),
    (
        MsgType.ACK,
        {
            "owner": 5, "path": [1, 5], "hops": 1,
            "served_by": None, "widened": 2, "records": [4, 9],
        },
    ),
    (MsgType.ACK, {"regions": 2, "node_id": 7}),
]  # fmt: skip


class TestAnyChunking:
    """The differential fuzzer of the stream decoder (ROADMAP item 3d)."""

    @given(
        picks=st.lists(
            st.tuples(
                st.integers(0, len(STREAM_POOL) - 1),
                st.integers(0, 2**64 - 1),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        packed=st.booleans(),
        cuts=st.lists(st.integers(min_value=0), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_partition_and_any_truncation_of_a_stream(self, picks, packed, cuts):
        expected, ends, stream = [], [], b""
        for index, request_id, dst in picks:
            kind, payload = STREAM_POOL[index]
            frame = Frame(kind, request_id, payload)
            stream += enveloped([frame], dst, packed)
            ends.append(len(stream))
            expected.append((dst, frame))
        assert FrameDecoder().feed(stream) == expected
        bounds = sorted({cut % (len(stream) + 1) for cut in cuts} | {0, len(stream)})
        chunked, out = FrameDecoder(), []
        for begin, end in zip(bounds, bounds[1:]):
            out.extend(chunked.feed(stream[begin:end]))
        assert out == expected and chunked.pending_bytes == 0
        for cut in bounds:  # a truncated stream yields whole frames only
            truncated = FrameDecoder()
            whole = sum(1 for end in ends if end <= cut)
            assert truncated.feed(stream[:cut]) == expected[:whole]
            assert truncated.pending_bytes == cut - ([0] + ends)[whole]


class TestLayoutCache:
    """The shape table behind the packed codec: one compiled Struct per
    shape and length tuple, bounded."""

    def test_same_layout_is_compiled_once(self):
        from repro.runtime import wire

        wire._SHAPES.clear()
        for kind, payload in PACKED_SHAPES.values():
            assert roundtrip_payload(kind, payload, packed=True) == payload
        first = dict(wire._SHAPES)
        # route, fused route, ack, fused ack; the publish ACK is fixed
        assert len(first) == 4
        assert all(isinstance(shape, struct.Struct) for shape in first.values())
        for kind, payload in 2 * list(PACKED_SHAPES.values()):
            assert roundtrip_payload(kind, payload, packed=True) == payload
        assert wire._SHAPES == first  # Struct compares by identity

    def test_cache_is_bounded(self):
        from repro.runtime import wire

        wire._SHAPES.clear()
        for n in range(wire.MAX_SHAPES + 88):  # more shapes than it holds
            payload = {"owner": 1, "path": list(range(n)), "hops": 0}
            assert roundtrip_payload(MsgType.ACK, payload, packed=True) == payload
        assert wire.MAX_SHAPES == 512
        assert len(wire._SHAPES) == wire.MAX_SHAPES
        # the oldest shapes went first; the newest one is held
        assert wire._ACK_SHAPE | (wire.MAX_SHAPES + 87) << 3 in wire._SHAPES
        assert wire._ACK_SHAPE | 0 << 3 not in wire._SHAPES

    def test_cached_packers_round_trip_variadic_sizes(self):
        # distinct dims/path lengths hit distinct cached layouts
        for dims in (2, 3, 5):
            for hops in (1, 4, 9):
                payload = {
                    "point": [float(i) / 8 for i in range(dims)],
                    "path": list(range(hops)),
                    "op": "lookup",
                    "src": 7,
                }
                data = encode_frame(Frame(MsgType.ROUTE, 9, payload), packed=True)
                assert data[3] & PACKED_FLAG
                assert decode_frame(data).payload == payload
