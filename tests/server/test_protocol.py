"""Wire-protocol framing and payload-codec tests, including the
robustness matrix: malformed magic, bad version, truncated frames,
CRC corruption, and oversized payloads, and the binary OK replies'
round trip over their full field ranges."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import FrameAssembler, encode_frame
from repro.stream import session


def test_frame_round_trip():
    raw = encode_frame(protocol.OPEN_SESSION, 7, b"hello")
    frames = FrameAssembler().feed(raw)
    assert len(frames) == 1
    frame = frames[0]
    assert frame.frame_type == protocol.OPEN_SESSION
    assert frame.seq == 7
    assert frame.payload == b"hello"
    assert frame.version == protocol.PROTOCOL_VERSION


def test_empty_payload_round_trip():
    frames = FrameAssembler().feed(encode_frame(protocol.PING, 0))
    assert frames[0].payload == b""


def test_multiple_frames_in_one_read():
    raw = encode_frame(protocol.PING, 1) + encode_frame(
        protocol.STATS, 2, b"x"
    )
    frames = FrameAssembler().feed(raw)
    assert [f.seq for f in frames] == [1, 2]


def test_byte_at_a_time_reassembly():
    raw = encode_frame(protocol.FEED_CHUNK, 99, b"abc" * 50)
    assembler = FrameAssembler()
    frames = []
    for i in range(len(raw)):
        frames.extend(assembler.feed(raw[i : i + 1]))
    assert len(frames) == 1
    assert frames[0].payload == b"abc" * 50
    assert assembler.buffered_bytes == 0


def test_partial_frame_waits():
    raw = encode_frame(protocol.PING, 3)
    assembler = FrameAssembler()
    assert assembler.feed(raw[:-1]) == []
    assert assembler.buffered_bytes == len(raw) - 1
    assert len(assembler.feed(raw[-1:])) == 1


def test_bad_magic_is_fatal():
    with pytest.raises(ProtocolError, match="magic"):
        FrameAssembler().feed(b"XX" + b"\x00" * 12)


def test_bad_magic_detected_before_full_header():
    # the 2-byte early check: garbage is rejected without waiting for
    # a full header's worth of bytes
    with pytest.raises(ProtocolError, match="magic"):
        FrameAssembler().feed(b"ZZ")


def test_unsupported_version():
    raw = bytearray(encode_frame(protocol.PING, 1))
    raw[2] = 99
    with pytest.raises(ProtocolError, match="version"):
        FrameAssembler().feed(bytes(raw))


def test_version_1_peer_is_refused_at_the_header():
    # version 1 answered FEED, SNAPSHOT and CLOSE in JSON; a peer still
    # speaking it fails at its first frame, never mid-reply
    old = encode_frame(protocol.PING, 1, version=1)
    with pytest.raises(ProtocolError, match="unsupported protocol version 1"):
        FrameAssembler().feed(old)


def test_crc_corruption_detected():
    raw = bytearray(encode_frame(protocol.SNAPSHOT, 5, b"payload"))
    raw[-1] ^= 0xFF
    with pytest.raises(ProtocolError, match="CRC"):
        FrameAssembler().feed(bytes(raw))


def test_payload_corruption_detected():
    raw = bytearray(encode_frame(protocol.SNAPSHOT, 5, b"payload"))
    raw[protocol.HEADER_BYTES] ^= 0x01
    with pytest.raises(ProtocolError, match="CRC"):
        FrameAssembler().feed(bytes(raw))


def test_oversized_declared_length_rejected_from_header():
    # an attacker-declared huge length must be rejected before the
    # assembler buffers the (never-arriving) body
    assembler = FrameAssembler(max_payload=64)
    header = (
        protocol.MAGIC
        + bytes((protocol.PROTOCOL_VERSION, protocol.PING))
        + (0).to_bytes(4, "big")
        + (1 << 30).to_bytes(4, "big")
    )
    with pytest.raises(ProtocolError, match="exceeds"):
        assembler.feed(header)


def test_encode_rejects_oversized_payload():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(protocol.PING, 0, b"x" * 65, max_payload=64)


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(ProtocolError):
        encode_frame(300, 0)
    with pytest.raises(ProtocolError):
        encode_frame(protocol.PING, 1 << 33)


# ----------------------------------------------------------------------
def test_json_codec_round_trip():
    body = {"b": 2, "a": [1, 2]}
    assert protocol.decode_json(protocol.encode_json(body)) == body
    assert protocol.decode_json(b"") == {}


def test_json_codec_rejects_garbage():
    with pytest.raises(ProtocolError, match="undecodable"):
        protocol.decode_json(b"\xff\xfe")
    with pytest.raises(ProtocolError, match="object"):
        protocol.decode_json(b"[1,2]")


def test_feed_payload_round_trip():
    raw = protocol.encode_feed_payload("sess-1", 42, b"\x00\x01data", True)
    sid, index, eof, data, deadline = protocol.decode_feed_payload_ex(raw)
    assert (sid, index, eof, data) == ("sess-1", 42, True, b"\x00\x01data")
    assert deadline is None


def test_feed_payload_eof_flag_defaults_off():
    raw = protocol.encode_feed_payload("s", 0, b"d")
    assert protocol.decode_feed_payload_ex(raw)[2] is False


def test_feed_payload_rejects_bad_session_ids():
    with pytest.raises(ProtocolError, match="session id"):
        protocol.encode_feed_payload("", 0, b"")
    with pytest.raises(ProtocolError, match="session id"):
        protocol.encode_feed_payload("x" * 256, 0, b"")
    with pytest.raises(ProtocolError, match="session id"):
        protocol.encode_feed_payload("\ud800", 0, b"")


def test_session_id_bytes_is_what_feed_carries():
    assert protocol.session_id_bytes("s") == b"s"
    widest = "\u00e9" * 127 + "x"  # 255 bytes of UTF-8
    assert len(protocol.session_id_bytes(widest)) == 255
    raw = protocol.encode_feed_payload(widest, 0, b"")
    assert protocol.decode_feed_payload_ex(raw)[0] == widest
    for bad in ("", "x" * 256, "\u00e9" * 128, "\ud800", "a\udfffb"):
        with pytest.raises(ProtocolError, match="session id"):
            protocol.session_id_bytes(bad)
    for bad in (None, 7, ["s"]):
        with pytest.raises(ProtocolError, match="must be a string"):
            protocol.session_id_bytes(bad)


def test_feed_payload_rejects_out_of_range_index():
    with pytest.raises(ProtocolError, match="chunk index"):
        protocol.encode_feed_payload("s", -1, b"")


def test_feed_payload_truncation_detected():
    raw = protocol.encode_feed_payload("session", 1, b"data")
    with pytest.raises(ProtocolError, match="truncated"):
        protocol.decode_feed_payload_ex(raw[:5])
    with pytest.raises(ProtocolError, match="empty"):
        protocol.decode_feed_payload_ex(b"")


def test_feed_payload_undecodable_sid():
    raw = bytes((2,)) + b"\xff\xfe" + (0).to_bytes(4, "big") + bytes((0,))
    with pytest.raises(ProtocolError, match="session id"):
        protocol.decode_feed_payload_ex(raw)


def test_assembler_duplicate_frames_parse_independently():
    wire = encode_frame(protocol.FEED_CHUNK, 7, b"payload")
    frames = FrameAssembler().feed(wire + wire)
    assert len(frames) == 2
    assert frames[0].payload == frames[1].payload == b"payload"
    assert frames[0].seq == frames[1].seq == 7


def test_assembler_preserves_wire_arrival_order():
    # a network that reorders delivers whole frames out of order; the
    # assembler must surface them exactly as they arrived, never
    # resort by seq
    first = encode_frame(protocol.FEED_CHUNK, 2, b"chunk-1")
    second = encode_frame(protocol.FEED_CHUNK, 1, b"chunk-0")
    frames = FrameAssembler().feed(first + second)
    assert [f.seq for f in frames] == [2, 1]
    assert [f.payload for f in frames] == [b"chunk-1", b"chunk-0"]


def test_assembler_odd_boundaries_across_many_frames():
    wires = b"".join(
        encode_frame(protocol.FEED_CHUNK, i, bytes([65 + i]) * (3 * i + 1))
        for i in range(6)
    )
    assembler = FrameAssembler()
    frames = []
    for start in range(0, len(wires), 5):  # 5-byte reads, never aligned
        frames.extend(assembler.feed(wires[start : start + 5]))
    assert [f.seq for f in frames] == list(range(6))
    assert [len(f.payload) for f in frames] == [3 * i + 1 for i in range(6)]
    assert assembler.buffered_bytes == 0


def test_assembler_corrupt_frame_poisons_the_stream():
    good = encode_frame(protocol.PING, 1)
    corrupted = bytearray(encode_frame(protocol.PING, 2))
    corrupted[-1] ^= 0xFF  # break the CRC
    assembler = FrameAssembler()
    assert len(assembler.feed(good)) == 1
    with pytest.raises(ProtocolError):
        assembler.feed(bytes(corrupted))


# ----------------------------------------------------------------------
# binary OK replies (FEED, SNAPSHOT, CLOSE)
#: Field values every codec must carry exactly: path counts pass 2^64
#: on the exact route, and 2^32 is the ``next_chunk`` that acknowledges
#: chunk 0xFFFFFFFF.
EDGE_VALUES = (0, 1, 127, 128, 2**32, 2**63, 2**64, 2**200)
FIELD_VALUES = st.integers(0, 2**200) | st.sampled_from(EDGE_VALUES)
REPLY_TYPES = sorted(protocol.REPLY_FIELDS)


def test_status_codes_are_pinned():
    # the wire code of a status is its position: every session status
    # has one, and reordering them would change the protocol
    assert protocol.STATUSES == (
        "active", "overflow", "closed", "evicted", "quarantined"
    )
    assert set(protocol.STATUSES) == {
        session.ACTIVE, session.OVERFLOW, session.CLOSED, session.EVICTED,
        session.QUARANTINED,
    }


@st.composite
def replies(draw):
    """A ``(request type, body)`` pair of a binary OK reply."""
    request_type = draw(st.sampled_from(REPLY_TYPES))
    body = {"status": draw(st.sampled_from(protocol.STATUSES))}
    for name in protocol.REPLY_FLAGS[request_type]:
        body[name] = draw(st.booleans())
    for name in protocol.REPLY_FIELDS[request_type]:
        body[name] = draw(FIELD_VALUES)
    return request_type, body


@given(replies())
def test_replies_round_trip(reply):
    request_type, body = reply
    payload = protocol.encode_reply(request_type, body)
    assert protocol.decode_reply(request_type, protocol.OK, payload) == body


@pytest.mark.parametrize("request_type", REPLY_TYPES)
def test_every_status_and_edge_value_round_trips(request_type):
    flags = protocol.REPLY_FLAGS[request_type]
    fields = protocol.REPLY_FIELDS[request_type]
    for status in protocol.STATUSES:
        for value in EDGE_VALUES:
            for flag in (False, True):
                body = {"status": status, **{name: flag for name in flags}}
                body.update((name, value) for name in fields)
                payload = protocol.encode_reply(request_type, body)
                # one varint byte per started 7 bits, one for zero
                width = max(1, -(-value.bit_length() // 7))
                assert len(payload) == 2 + len(fields) * width
                assert protocol.decode_reply(
                    request_type, protocol.OK, payload
                ) == body


#: One reply of each type as the shard hands it over (extra keys
#: included) and its bytes on the wire: status, flags, then the fields
#: in order (300 is the two-byte varint ac 02).
PINNED_LAYOUTS = (
    (
        protocol.FEED_CHUNK,
        {
            "session_id": "s", "status": session.OVERFLOW,
            "duplicate": True, "chunk_index": 1, "consumed": 2,
            "records": 3, "observed_length": 4, "frontier_size": 5,
            "next_chunk": 300,
        },
        bytes((1, 1, 1, 2, 3, 4, 5, 0xAC, 0x02)),
    ),
    (
        protocol.SNAPSHOT,
        {
            "status": session.ACTIVE, "consistent_paths": 1,
            "total_paths": 6, "fraction": 1 / 6, "observed_length": 2,
            "next_chunk": 3,
        },
        bytes((0, 0, 1, 6, 2, 3)),
    ),
    (
        protocol.CLOSE_SESSION,
        {
            "session_id": "s", "status": session.QUARANTINED,
            "records": 4, "observed_length": 5, "consistent_paths": 1,
            "total_paths": 6, "next_chunk": 7, "mode": "prefix",
            "peak_frontier": 6,
        },
        bytes((4, 0, 4, 5, 1, 6, 7)),
    ),
)


@pytest.mark.parametrize("request_type, body, wire", PINNED_LAYOUTS)
def test_reply_layouts_are_pinned(request_type, body, wire):
    assert protocol.encode_reply(request_type, body) == wire
    decoded = protocol.decode_reply(request_type, protocol.OK, wire)
    assert decoded == {
        key: body[key]
        for key in ("status", *protocol.REPLY_FLAGS[request_type],
                    *protocol.REPLY_FIELDS[request_type])
    }


@given(replies())
def test_truncated_or_padded_replies_are_refused(reply):
    request_type, body = reply
    payload = protocol.encode_reply(request_type, body)
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.decode_reply(request_type, protocol.OK, payload[:cut])
    for extra in (b"\x00", b"\x80", b"\x01\x02"):
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.decode_reply(
                request_type, protocol.OK, payload + extra
            )


@pytest.mark.parametrize("request_type", REPLY_TYPES)
def test_unknown_status_code_or_flag_is_refused(request_type):
    body = {"status": session.ACTIVE}
    body.update((name, True) for name in protocol.REPLY_FLAGS[request_type])
    body.update((name, 1) for name in protocol.REPLY_FIELDS[request_type])
    payload = protocol.encode_reply(request_type, body)
    for code in (len(protocol.STATUSES), 0x80, 0xFF):
        with pytest.raises(ProtocolError, match="status"):
            protocol.decode_reply(
                request_type, protocol.OK, bytes((code,)) + payload[1:]
            )
    unknown = 1 << len(protocol.REPLY_FLAGS[request_type])
    with pytest.raises(ProtocolError, match="flags"):
        protocol.decode_reply(
            request_type, protocol.OK,
            payload[:1] + bytes((payload[1] | unknown,)) + payload[2:],
        )


@pytest.mark.parametrize("request_type", REPLY_TYPES)
def test_encoder_refuses_what_the_wire_cannot_say(request_type):
    body = {"status": "paused"}
    body.update((name, False) for name in protocol.REPLY_FLAGS[request_type])
    body.update((name, 0) for name in protocol.REPLY_FIELDS[request_type])
    with pytest.raises(ProtocolError, match="status"):
        protocol.encode_reply(request_type, body)
    body["status"] = session.ACTIVE
    body[protocol.REPLY_FIELDS[request_type][-1]] = -1
    with pytest.raises(ProtocolError, match="negative"):
        protocol.encode_reply(request_type, body)


def test_other_replies_stay_json():
    error = protocol.error_payload("unknown-session", "gone")
    for request_type in (*REPLY_TYPES, protocol.OPEN_SESSION):
        assert protocol.decode_reply(
            request_type, protocol.ERROR, error
        ) == {"error": "unknown-session", "message": "gone"}
    retry = protocol.retry_later_payload("queue-full")
    assert protocol.decode_reply(
        protocol.FEED_CHUNK, protocol.RETRY_LATER, retry
    ) == {"reason": "queue-full", "retry_after_s": 0.05}
    opened = protocol.encode_json({"session_id": "s", "shard": 1})
    for request_type in (protocol.OPEN_SESSION, protocol.STATS,
                         protocol.PING):
        assert protocol.decode_reply(
            request_type, protocol.OK, opened
        ) == {"session_id": "s", "shard": 1}
