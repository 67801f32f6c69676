"""Wire-protocol framing and payload-codec tests, including the
robustness matrix: malformed magic, bad version, malformed varints,
truncated frames, CRC corruption, and oversized payloads, and the
binary requests' and OK replies' round trip over their full field
ranges."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.runtime.checksum import crc16
from repro.server import protocol
from repro.server.protocol import FrameAssembler, WireFrame, encode_frame
from repro.stream import session


def test_frame_round_trip():
    raw = encode_frame(protocol.OPEN_SESSION, 7, b"hello")
    frames = FrameAssembler().feed(raw)
    assert len(frames) == 1
    frame = frames[0]
    assert frame.frame_type == protocol.OPEN_SESSION
    assert frame.seq == 7
    assert frame.payload == b"hello"
    # the leading byte, the type, one varint byte each for seq and
    # length, then the payload and the CRC
    assert raw[0] == protocol.MAGIC | protocol.PROTOCOL_VERSION
    assert len(raw) == 4 + 5 + protocol.TRAILER_BYTES


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
    raw[0] = protocol.MAGIC | 9
    with pytest.raises(ProtocolError, match="version 9"):
        FrameAssembler().feed(bytes(raw))


def old_frame(version, frame_type, seq, payload=b""):
    """A frame as protocol versions 1 to 3 sent it: ``"Rp"``, the
    version, the type, ``u32`` seq and length, the payload, and the
    CRC of everything after ``"Rp"``."""
    body = (
        bytes((version, frame_type)) + seq.to_bytes(4, "big")
        + len(payload).to_bytes(4, "big") + payload
    )
    return b"Rp" + body + crc16(body).to_bytes(2, "big")


def test_version_1_peer_is_refused_at_the_header():
    # version 1 answered FEED, SNAPSHOT and CLOSE in JSON; a peer still
    # speaking it fails at its first frame, never mid-reply
    old = old_frame(1, protocol.PING, 1)
    with pytest.raises(ProtocolError, match="unsupported protocol version 1"):
        FrameAssembler().feed(old)


def test_version_2_peer_is_refused_at_the_header():
    # version 2 sent OPEN, SNAPSHOT and CLOSE requests and answered
    # OPEN in JSON; a peer still speaking it fails the same way
    old = old_frame(2, protocol.PING, 1)
    with pytest.raises(ProtocolError, match="unsupported protocol version 2"):
        FrameAssembler().feed(old)


def test_version_3_peer_is_refused_at_the_header():
    # version 3 framed every request in the fixed 12-byte header; its
    # first three bytes name it, before any seq or length arrives
    old = old_frame(3, protocol.FEED_CHUNK, 7, b"\x01s\x00\x00\x00\x00\x00")
    assembler = FrameAssembler()
    assert assembler.feed(old[:2]) == []
    with pytest.raises(ProtocolError, match="unsupported protocol version 3"):
        assembler.feed(old[2:3])
    with pytest.raises(ProtocolError, match="unsupported protocol version 3"):
        FrameAssembler().feed(old)


def test_version_4_peer_is_refused_at_the_header():
    # version 4 named a FEED's, SNAPSHOT's and CLOSE's session by id;
    # its leading byte 0xB4 names it before any seq or length arrives
    raw = bytearray(encode_frame(protocol.SNAPSHOT, 1, b"\x01s\x00"))
    raw[0] = protocol.MAGIC | 4
    assert raw[0] == 0xB4
    with pytest.raises(ProtocolError, match="unsupported protocol version 4"):
        FrameAssembler().feed(bytes(raw[:1]))


def test_crc_corruption_detected():
    raw = bytearray(encode_frame(protocol.SNAPSHOT, 5, b"payload"))
    raw[-1] ^= 0xFF
    with pytest.raises(ProtocolError, match="CRC"):
        FrameAssembler().feed(bytes(raw))


def test_payload_corruption_detected():
    raw = bytearray(encode_frame(protocol.SNAPSHOT, 5, b"payload"))
    raw[len(raw) - protocol.TRAILER_BYTES - len(b"payload")] ^= 0x01
    with pytest.raises(ProtocolError, match="CRC"):
        FrameAssembler().feed(bytes(raw))


def test_oversized_declared_length_rejected_from_header():
    # an attacker-declared huge length must be rejected before the
    # assembler buffers the (never-arriving) body: at the byte that
    # completes its varint
    assembler = FrameAssembler(max_payload=64)
    header = (
        bytes((protocol.MAGIC | protocol.PROTOCOL_VERSION, protocol.PING))
        + b"\x00"  # seq 0
        + b"\x80\x80\x80\x80\x04"  # length 1 << 30
    )
    assert assembler.feed(header[:-1]) == []
    with pytest.raises(ProtocolError, match="exceeds"):
        assembler.feed(header[-1:])


def test_encode_rejects_oversized_payload():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(protocol.PING, 0, b"x" * 65, max_payload=64)


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(ProtocolError):
        encode_frame(300, 0)
    with pytest.raises(ProtocolError):
        encode_frame(protocol.PING, 1 << 33)


# ----------------------------------------------------------------------
# the varint header
#: The narrowest and widest value of each varint width up to 32 bits.
VARINT_EDGES = (
    0, 127, 128, 16383, 16384, 2**21 - 1, 2**21, 2**28 - 1, 2**28,
    2**32 - 1,
)
SEQS = st.integers(0, 2**32 - 1) | st.sampled_from(VARINT_EDGES)
#: Payload lengths at the length varint's edges, and the most a frame
#: may carry.
PAYLOAD_LENGTHS = (0, 127, 128, 16383, 16384, protocol.DEFAULT_MAX_PAYLOAD)
LEAD = bytes((protocol.MAGIC | protocol.PROTOCOL_VERSION, protocol.PING))


def varint_width(value):
    """One varint byte per started 7 bits, one for zero."""
    return max(1, -(-value.bit_length() // 7))


def reassembled(pieces):
    assembler = FrameAssembler()
    frames = [frame for piece in pieces for frame in assembler.feed(piece)]
    assert assembler.buffered_bytes == 0
    return frames


@settings(max_examples=40, deadline=None)
@given(SEQS, st.sampled_from(PAYLOAD_LENGTHS), st.data())
def test_frames_round_trip_at_the_varint_edges(seq, length, data):
    payload = bytes(range(256)) * (length // 256) + bytes(range(length % 256))
    raw = encode_frame(protocol.FEED_CHUNK, seq, payload)
    header = 2 + varint_width(seq) + varint_width(length)
    assert header <= protocol.HEADER_BYTES
    assert len(raw) == header + length + protocol.TRAILER_BYTES
    expected = [WireFrame(protocol.FEED_CHUNK, seq, payload)]
    assert reassembled([raw]) == expected
    cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=6))
    bounds = sorted({0, len(raw), *cuts})
    assert reassembled(
        [raw[start:end] for start, end in zip(bounds, bounds[1:])]
    ) == expected
    singles = [raw[i : i + 1] for i in range(len(raw))]
    if length > 16384:  # a megabyte a byte at a time takes seconds
        singles = singles[:header] + [raw[header:-2]] + singles[-2:]
    assert reassembled(singles) == expected


def test_a_varint_longer_than_5_bytes_is_refused():
    # refused at its fifth byte, which asks for a sixth
    assembler = FrameAssembler()
    assert assembler.feed(LEAD + b"\x80" * 4) == []
    with pytest.raises(ProtocolError, match="longer than 5 bytes"):
        assembler.feed(b"\x80")
    with pytest.raises(ProtocolError, match="longer than 5 bytes"):
        FrameAssembler().feed(LEAD + b"\x01" + b"\xff" * 5)  # the length
    with pytest.raises(ProtocolError, match="longer than 5 bytes"):
        protocol.decode_session_request(
            protocol.SNAPSHOT, b"\x01\x02" + b"\x80" * 5 + b"\x01"
        )
    # five bytes carry 35 bits; a 32-bit field uses 32 of them
    with pytest.raises(ProtocolError, match="exceeds 32 bits"):
        FrameAssembler().feed(LEAD + b"\xff\xff\xff\xff\x10")
    with pytest.raises(ProtocolError, match="exceeds 32 bits"):
        protocol.decode_session_request(
            protocol.SNAPSHOT, b"\x01\x02\xff\xff\xff\xff\x10"
        )


#: 0, 1 and 127 padded with a zero byte: a varint whose last byte is
#: zero has a shorter form.
PADDED_VARINTS = (b"\x80\x00", b"\x81\x00", b"\xff\x80\x00")


@pytest.mark.parametrize("padded", PADDED_VARINTS)
def test_a_varint_not_in_its_shortest_form_is_refused(padded):
    for header in (LEAD + padded + b"\x00", LEAD + b"\x01" + padded):
        with pytest.raises(ProtocolError, match="shortest"):
            FrameAssembler().feed(header)
    with pytest.raises(ProtocolError, match="shortest"):
        protocol.decode_session_request(
            protocol.SNAPSHOT, b"\x01\x02" + padded
        )
    with pytest.raises(ProtocolError, match="shortest"):
        protocol.decode_reply(
            protocol.SNAPSHOT, protocol.OK, b"\x00\x00" + padded + b"\x01" * 3
        )


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
                width = varint_width(value)
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
    document = protocol.encode_json({"scenario": "s", "version": 3})
    for request_type in (protocol.STATS, protocol.PING):
        assert protocol.decode_reply(
            request_type, protocol.OK, document
        ) == {"scenario": "s", "version": 3}


# ----------------------------------------------------------------------
# binary OPEN, SNAPSHOT and CLOSE requests, and the OPEN reply
def _within_255_bytes(text):
    """*text* cut to the whole characters of its first 255 UTF-8
    bytes."""
    return text.encode("utf-8")[:255].decode("utf-8", "ignore")


#: Strings a length byte can announce: 0..255 bytes of UTF-8, multi-byte
#: characters included, and the widest ids at the edge.
EDGE_IDS = ("s", "\u00e9" * 127 + "x", "x" * 255, "\U0001f600" * 63 + "xyz")
TEXTS = st.text(max_size=255).map(_within_255_bytes)
SESSION_IDS = TEXTS.filter(bool) | st.sampled_from(EDGE_IDS)
DEADLINES = st.none() | st.integers(0, 0xFFFFFFFF)
#: Handles and chunk indices: 32-bit values, the varint edges included.
U32S = st.integers(0, 0xFFFFFFFF) | st.sampled_from(
    (0, 127, 128, 16383, 16384, 2**28 - 1, 2**28, 0xFFFFFFFF)
)
SESSION_TYPES = (protocol.SNAPSHOT, protocol.CLOSE_SESSION)
#: The tokens an id-less OPEN may carry: 1..254 bytes, so that the
#: server's id for its session, ``"g" + token``, fits 255 bytes.
NEW_ID_TOKENS = TEXTS.map(
    lambda text: text.encode("utf-8")[:254].decode("utf-8", "ignore")
).filter(bool)


@st.composite
def open_requests(draw):
    session_id = draw(st.none() | SESSION_IDS)
    if session_id is not None and draw(st.booleans()):
        # an ATTACH: an id, maybe a token, no transport or mode
        return protocol.OpenRequest(
            session_id=session_id,
            token=draw(st.none() | TEXTS),
            deadline_ms=draw(DEADLINES),
            attach=True,
        )
    return protocol.OpenRequest(
        session_id=session_id,
        token=draw(
            NEW_ID_TOKENS if session_id is None else st.none() | TEXTS
        ),
        transport=draw(st.sampled_from(("text", "ctrace")) | TEXTS),
        mode=draw(
            st.none() | st.sampled_from(("prefix", "exact", "window"))
            | TEXTS
        ),
        deadline_ms=draw(DEADLINES),
    )


def encode_open(request):
    return protocol.encode_open_payload(**dataclasses.asdict(request))


@st.composite
def open_replies(draw):
    body = {
        "shard": draw(FIELD_VALUES),
        "handle": draw(FIELD_VALUES),
        "transport": draw(TEXTS),
        "mode": draw(TEXTS),
    }
    if draw(st.booleans()):
        body.update(resumed=True, next_chunk=draw(FIELD_VALUES))
    return body


@given(open_requests())
def test_open_requests_round_trip(request):
    assert protocol.decode_open_payload(encode_open(request)) == request


@given(U32S, DEADLINES, st.sampled_from(SESSION_TYPES))
def test_snapshot_and_close_requests_round_trip(handle, deadline, kind):
    payload = protocol.encode_session_request(handle, deadline_ms=deadline)
    assert len(payload) == (
        varint_width(handle) + 1
        + (0 if deadline is None else varint_width(deadline))
    )
    assert protocol.decode_session_request(kind, payload) == (
        handle, deadline
    )


@given(U32S, U32S, DEADLINES, st.booleans(), st.binary(max_size=64))
def test_feed_requests_round_trip(handle, index, deadline, eof, data):
    payload = protocol.encode_feed_request(
        handle, index, data, eof, deadline_ms=deadline
    )
    head = varint_width(handle) + varint_width(index) + 1 + (
        0 if deadline is None else varint_width(deadline)
    )
    assert len(payload) == head + len(data)
    assert protocol.decode_feed_request(payload) == (
        handle, index, eof, data, deadline
    )


@pytest.mark.parametrize(
    "field, padded",
    [
        (field, padded)
        for field in ("handle", "chunk index")
        for padded in (b"\x80" * 5 + b"\x01", b"\xff" * 4 + b"\x10",
                       *PADDED_VARINTS)
    ],
)
def test_handle_and_chunk_varints_are_checked(field, padded):
    # a handle or chunk index longer than 5 bytes, past 32 bits or not
    # in its shortest form makes the request malformed
    if field == "handle":
        feed, session = padded + b"\x00\x00", padded + b"\x00"
    else:
        feed, session = b"\x01" + padded + b"\x00", None
    with pytest.raises(ProtocolError, match=field):
        protocol.decode_feed_request(feed)
    if session is not None:
        for kind in SESSION_TYPES:
            with pytest.raises(ProtocolError, match=field):
                protocol.decode_session_request(kind, session)


def test_handle_and_chunk_encoders_refuse_what_32_bits_cannot_hold():
    for bad in (-1, 2**32):
        with pytest.raises(ProtocolError, match="handle"):
            protocol.encode_session_request(bad)
        with pytest.raises(ProtocolError, match="handle"):
            protocol.encode_feed_request(bad, 0, b"")
        with pytest.raises(ProtocolError, match="chunk index"):
            protocol.encode_feed_request(0, bad, b"")


@given(open_replies())
def test_open_replies_round_trip(body):
    payload = protocol.encode_reply(protocol.OPEN_SESSION, body)
    assert protocol.decode_reply(
        protocol.OPEN_SESSION, protocol.OK, payload
    ) == body


@st.composite
def binary_payloads(draw):
    """A valid payload of a new binary codec, and its decoder: an OPEN,
    SNAPSHOT or CLOSE request, or an OPEN reply."""
    kind = draw(st.sampled_from(("open", "snapshot", "close", "opened")))
    if kind == "open":
        return protocol.decode_open_payload, encode_open(
            draw(open_requests())
        )
    if kind == "opened":
        return (
            lambda payload: protocol.decode_reply(
                protocol.OPEN_SESSION, protocol.OK, payload
            ),
            protocol.encode_reply(protocol.OPEN_SESSION, draw(open_replies())),
        )
    request_type = (
        protocol.SNAPSHOT if kind == "snapshot" else protocol.CLOSE_SESSION
    )
    return (
        lambda payload: protocol.decode_session_request(
            request_type, payload
        ),
        protocol.encode_session_request(
            draw(U32S), deadline_ms=draw(DEADLINES)
        ),
    )


@given(binary_payloads())
def test_truncated_or_padded_payloads_are_refused(case):
    decode, payload = case
    decode(payload)
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError, match="truncated|empty"):
            decode(payload[:cut])
    for extra in (b"\x00", b"\x80", b"\x01\x02"):
        with pytest.raises(ProtocolError, match="trailing"):
            decode(payload + extra)


#: Requests and an OPEN reply as encoded, and their bytes on the wire:
#: an OPEN's id by its length, a FEED's, SNAPSHOT's or CLOSE's handle
#: (300 is the two-byte varint ac 02) and a FEED's chunk index, the
#: flags, the deadline (10,000 is the two-byte varint 90 4e), then each
#: string by its length.
PINNED_REQUESTS = (
    # a FEED without a deadline, as the WAL logs it: a data directory
    # written at protocol version 3 replays unchanged
    (
        protocol.encode_feed_payload("sized", 7, b"data", eof=True),
        b"\x05sized\x00\x00\x00\x07\x01data",
    ),
    (
        protocol.encode_feed_request(300, 7, b"data", eof=True),
        b"\xac\x02\x07\x01data",
    ),
    (
        protocol.encode_feed_request(0, 7, b"d", deadline_ms=10_000),
        b"\x00\x07\x02\x90\x4ed",
    ),
    (protocol.encode_session_request(5), b"\x05\x00"),
    (
        protocol.encode_session_request(300, deadline_ms=10_000),
        b"\xac\x02\x02\x90\x4e",
    ),
    (
        protocol.encode_open_payload("sized", attach=True),
        b"\x05sized\x40",
    ),
    (
        protocol.encode_open_payload(
            "sized", token="1234abcd", deadline_ms=10_000, attach=True
        ),
        b"\x05sized\x4a\x90\x4e\x081234abcd",
    ),
    (
        protocol.encode_open_payload(
            "sized", token="1234abcd", deadline_ms=10_000
        ),
        b"\x05sized\x0a\x90\x4e\x081234abcd",
    ),
    (
        protocol.encode_open_payload(
            token="t", transport="ctrace", mode="window"
        ),
        b"\x00\x3c\x01t\x06ctrace\x06window",
    ),
    (
        protocol.encode_reply(protocol.OPEN_SESSION, {
            "session_id": "sized", "shard": 1, "handle": 2,
            "transport": "text", "mode": "prefix",
        }),
        b"\x00\x01\x02\x04text\x06prefix",
    ),
    (
        protocol.encode_reply(protocol.OPEN_SESSION, {
            "shard": 1, "handle": 300, "transport": "text",
            "mode": "prefix", "resumed": True, "next_chunk": 300,
        }),
        b"\x01\x01\xac\x02\xac\x02\x04text\x06prefix",
    ),
)


@pytest.mark.parametrize("encoded, wire", PINNED_REQUESTS)
def test_request_and_open_reply_layouts_are_pinned(encoded, wire):
    assert encoded == wire


def test_requests_share_the_feed_head():
    # a SNAPSHOT or CLOSE is a FEED's head without the chunk index
    feed = protocol.encode_feed_request(300, 7, b"", deadline_ms=10)
    head = protocol.encode_session_request(300, deadline_ms=10)
    assert feed == head[:2] + b"\x07" + head[2:]


def test_open_omits_the_default_transport_and_what_is_not_given():
    assert protocol.encode_open_payload("s") == b"\x01s\x00"
    assert protocol.encode_open_payload("s", transport="text") == (
        b"\x01s\x00"
    )
    assert protocol.decode_open_payload(b"\x01s\x00") == (
        protocol.OpenRequest("s")
    )
    # a transport named explicitly decodes the same
    assert protocol.decode_open_payload(b"\x01s\x10\x04text") == (
        protocol.OpenRequest("s", transport="text")
    )


@pytest.mark.parametrize(
    "request_type, payload",
    [
        # handle 1, then the flags 0x73: a FEED's end of stream, and
        # OPEN's new id and strings
        (protocol.SNAPSHOT, b"\x01s\x01"),
        (protocol.CLOSE_SESSION, b"\x01s\x04"),
        (protocol.SNAPSHOT, b"\x01\x01"),  # a FEED's end of stream
        (protocol.CLOSE_SESSION, b"\x01\x40"),  # OPEN's attach
        (protocol.OPEN_SESSION, b"\x01s\x01"),
        (protocol.OPEN_SESSION, b"\x01s\x80"),
        # a FEED as the WAL logs it, with OPEN's token flag
        (protocol.FEED_CHUNK, b"\x01s\x00\x00\x00\x00\x08"),
    ],
)
def test_flags_a_request_type_does_not_know_are_refused(
    request_type, payload
):
    decode = {
        protocol.OPEN_SESSION: protocol.decode_open_payload,
        protocol.FEED_CHUNK: protocol.decode_feed_payload_ex,
    }.get(
        request_type,
        lambda raw: protocol.decode_session_request(request_type, raw),
    )
    with pytest.raises(ProtocolError, match="unknown .* flags"):
        decode(payload)


def test_an_attach_asks_for_nothing_an_open_would_create():
    # an ATTACH names its id and maybe a token, never a new id, a
    # transport or a mode: encoding or decoding one is refused
    for kwargs in (
        {"session_id": None, "token": "t"},
        {"session_id": "s", "transport": "ctrace"},
        {"session_id": "s", "mode": "window"},
    ):
        with pytest.raises(ProtocolError, match="ATTACH"):
            protocol.encode_open_payload(attach=True, **kwargs)
    for payload in (
        b"\x00\x4c\x01t",  # a new id
        b"\x01s\x50\x06ctrace",  # a transport
        b"\x01s\x60\x06window",  # a mode
    ):
        with pytest.raises(ProtocolError, match="ATTACH"):
            protocol.decode_open_payload(payload)
    # the default transport is no transport on the wire
    assert protocol.encode_open_payload(
        "s", transport="text", attach=True
    ) == b"\x01s\x40"


def test_feed_requests_refuse_flags_a_feed_does_not_know():
    # handle 1, chunk 0, then OPEN's token or attach flag
    for flags in (b"\x08", b"\x40"):
        with pytest.raises(ProtocolError, match="unknown .* flags"):
            protocol.decode_feed_request(b"\x01\x00" + flags)


def test_ids_the_head_cannot_name_are_refused():
    # an OPEN, an ATTACH and a logged FEED name their session by id
    for decode, flags, index in (
        (protocol.decode_open_payload, b"\x00", b""),
        (protocol.decode_open_payload, b"\x40", b""),
        (protocol.decode_feed_payload_ex, b"\x00", b"\x00" * 4),
    ):
        with pytest.raises(ProtocolError, match="1..255 bytes, got 0"):
            decode(b"\x00" + index + flags)
        with pytest.raises(ProtocolError, match="undecodable session id"):
            decode(b"\x02\xff\xfe" + index + flags)
    # an OPEN asking for a new id must name none
    with pytest.raises(ProtocolError, match="new session id"):
        protocol.decode_open_payload(b"\x01s\x04")
    with pytest.raises(ProtocolError, match="undecodable token"):
        protocol.decode_open_payload(b"\x01s\x08\x01\xff")


#: An id-less OPEN's token takes 1..254 bytes: none, an empty one and
#: one of 255 bytes cannot name the session ``"g" + token``.
UNUSABLE_NEW_ID_TOKENS = (
    (None, b"\x00\x04"),
    ("", b"\x00\x0c\x00"),
    ("x" * 255, b"\x00\x0c\xff" + b"x" * 255),
)


@pytest.mark.parametrize("token, payload", UNUSABLE_NEW_ID_TOKENS)
def test_an_id_less_open_needs_a_token_of_1_to_254_bytes(
    client, token, payload
):
    with pytest.raises(ProtocolError, match="1..254 bytes"):
        protocol.encode_open_payload(token=token)
    with pytest.raises(ProtocolError, match="1..254 bytes"):
        protocol.decode_open_payload(payload)
    # a server answers the frame with a protocol error and opens nothing
    frame_type, reply = client.request(protocol.OPEN_SESSION, payload)
    assert frame_type == protocol.ERROR
    assert reply["error"] == "protocol"
    assert "1..254 bytes" in reply["message"]
    assert client.stats()["server"]["open_sessions"] == 0
    # the widest token that fits still opens, as the widest id
    widest = "x" * 254
    request = protocol.decode_open_payload(
        protocol.encode_open_payload(token=widest)
    )
    assert request == protocol.OpenRequest(None, token=widest)
    assert protocol.session_id_bytes(request.effective_id) == (
        b"g" + widest.encode()
    )


@pytest.mark.parametrize("deadline_ms", [-1, 2**32])
def test_encoders_refuse_a_deadline_the_wire_cannot_carry(deadline_ms):
    # the field is an unsigned 32-bit count of milliseconds: no
    # negative, oversized, string or boolean deadline reaches a server
    for encode in (
        lambda: protocol.encode_feed_payload(
            "s", 0, b"", deadline_ms=deadline_ms
        ),
        lambda: protocol.encode_feed_request(
            0, 0, b"", deadline_ms=deadline_ms
        ),
        lambda: protocol.encode_session_request(
            0, deadline_ms=deadline_ms
        ),
        lambda: protocol.encode_open_payload(
            "s", deadline_ms=deadline_ms
        ),
    ):
        with pytest.raises(ProtocolError, match="deadline"):
            encode()


def test_open_encoder_refuses_strings_the_wire_cannot_carry():
    for field in ("token", "transport", "mode"):
        for bad, match in (
            ("x" * 256, "0..255 bytes"), ("\ud800", "not UTF-8"),
            (7, "must be a string"),
        ):
            with pytest.raises(ProtocolError, match=match):
                protocol.encode_open_payload("s", **{field: bad})
