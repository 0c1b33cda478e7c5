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
        [decode_frame, lambda data: FrameDecoder().feed(data)],
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
        """An ACK payload smuggled under a ROUTE header must not parse."""
        data = pack_payload(MsgType.ACK, {"owner": 1, "path": [1], "hops": 0})
        with pytest.raises(ProtocolError, match="does not belong"):
            unpack_payload(MsgType.ROUTE, data)

    def test_trailing_bytes_rejected(self):
        kind, payload = PACKED_PAYLOADS[0]
        data = pack_payload(kind, payload)
        with pytest.raises(ProtocolError, match="trailing"):
            unpack_payload(kind, data + b"\x00")

    def test_truncated_packed_payload_rejected(self):
        kind, payload = PACKED_PAYLOADS[0]
        data = pack_payload(kind, payload)
        for cut in range(len(data)):
            with pytest.raises(ProtocolError):
                unpack_payload(kind, data[:cut])

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


class TestFrameDecoder:
    def test_single_byte_feeds(self):
        frames = [
            Frame(MsgType.JOIN, 1, {"src": "joiner:1"}),
            Frame(MsgType.ACK, 1, {"node_id": 4, "host": 17}),
            Frame(MsgType.HEARTBEAT, 2, {"seq": 0}),
        ]
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert [f.kind for f in out] == [f.kind for f in frames]
        assert [f.payload for f in out] == [f.payload for f in frames]
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        frames = [Frame(MsgType.ACK, i, {"i": i}) for i in range(5)]
        decoder = FrameDecoder()
        out = decoder.feed(b"".join(encode_frame(f) for f in frames))
        assert [f.payload["i"] for f in out] == [0, 1, 2, 3, 4]

    def test_partial_tail_stays_buffered(self):
        data = encode_frame(Frame(MsgType.ACK, 1, {"ok": True}))
        decoder = FrameDecoder()
        assert decoder.feed(data + data[:5]) != []
        assert decoder.pending_bytes == 5
        assert decoder.feed(data[5:])[0].payload == {"ok": True}

    def test_poisoned_after_protocol_error(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"XX" + b"\x00" * 32)
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(b"")

    def test_frames_before_a_corrupt_one_in_the_same_chunk_are_returned(self):
        """good + good + bad in one feed: both frames come back, the
        error is the next feed's -- exactly as byte-by-byte feeding
        would have it."""
        good = [Frame(MsgType.ACK, i, {"i": i}) for i in (1, 2)]
        stream = b"".join(encode_frame(f) for f in good) + b"XX" + b"\x00" * 32
        decoder = FrameDecoder()
        assert decoder.feed(stream) == good
        assert decoder.poisoned
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(b"")
        trickled, out = FrameDecoder(), []
        with pytest.raises(ProtocolError, match="bad magic"):
            for i in range(len(stream)):
                out.extend(trickled.feed(stream[i : i + 1]))
        assert out == good

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
        chunk = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        began = time.perf_counter()
        out = decoder.feed(chunk)
        elapsed = time.perf_counter() - began
        assert len(out) == 5000
        assert [f.payload["i"] for f in out[:3]] == [0, 1, 2]
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
        envelope=st.booleans(),
        cuts=st.lists(st.integers(min_value=0), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_partition_and_any_truncation_of_a_stream(
        self, picks, packed, envelope, cuts
    ):
        expected, ends, stream = [], [], b""
        for index, request_id, dst in picks:
            kind, payload = STREAM_POOL[index]
            frame = Frame(kind, request_id, payload)
            prefix = ENVELOPE.pack(dst) if envelope else b""
            stream += prefix + encode_frame(frame, packed=packed)
            ends.append(len(stream))
            expected.append((dst, frame) if envelope else frame)
        assert FrameDecoder(envelope).feed(stream) == expected
        bounds = sorted({cut % (len(stream) + 1) for cut in cuts} | {0, len(stream)})
        chunked, out = FrameDecoder(envelope), []
        for begin, end in zip(bounds, bounds[1:]):
            out.extend(chunked.feed(stream[begin:end]))
        assert out == expected and chunked.pending_bytes == 0
        for cut in bounds:  # a truncated stream yields whole frames only
            truncated = FrameDecoder(envelope)
            whole = sum(1 for end in ends if end <= cut)
            assert truncated.feed(stream[:cut]) == expected[:whole]
            assert truncated.pending_bytes == cut - ([0] + ends)[whole]


class TestLayoutCache:
    """The per-count compiled-Struct cache behind the packed codec."""

    def test_same_layout_is_compiled_once(self):
        from repro.runtime.wire import _layout

        first = _layout("!BBIB5d")
        assert _layout("!BBIB5d") is first
        assert isinstance(first, struct.Struct)

    def test_cache_is_bounded(self):
        from repro.runtime.wire import _layout

        _layout.cache_clear()
        for n in range(600):  # more distinct layouts than the cache holds
            _layout(f"!{n + 1}d")
        info = _layout.cache_info()
        assert info.maxsize == 512
        assert info.currsize <= 512

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
