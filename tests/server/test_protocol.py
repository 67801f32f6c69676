"""Wire-protocol framing and payload-codec tests, including the
robustness matrix: malformed magic, bad version, truncated frames,
CRC corruption, and oversized payloads."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import FrameAssembler, encode_frame


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
