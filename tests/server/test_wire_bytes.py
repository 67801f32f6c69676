"""What a debugger exchanges per record: the binary requests' and OK
replies' exact frame sizes, and the server's own byte counters over 20
scenario-1 captures fed one record per FEED (the ``per-record`` workload
of ``bench/``, in process), with and without a SNAPSHOT after every FEED
(the shape of ``window-poll``)."""

from __future__ import annotations

import socket

import pytest

from repro.server import (
    DebugClient,
    ServeContext,
    ServerConfig,
    SessionFeed,
    protocol,
)
from repro.server.loadgen import render_session_chunks
from tests.server.conftest import start_server


@pytest.fixture(scope="module")
def sc1x1() -> ServeContext:
    return ServeContext.from_scenario(1, instances=1)


def per_record_chunks(context, seed):
    """One record per chunk, the trace-file header riding with the
    first."""
    chunks = render_session_chunks(context, seed=seed, chunk_records=1)
    return (chunks[0] + chunks[1],) + chunks[2:]


def exchange(sock, frame_type, payload):
    """Send one request; returns the reply frame and the bytes it took
    on the wire."""
    sock.sendall(protocol.encode_frame(frame_type, 1, payload))
    assembler = protocol.FrameAssembler()
    received = 0
    while True:
        data = sock.recv(65536)
        assert data, "server closed the connection"
        received += len(data)
        frames = assembler.feed(data)
        if frames:
            assert assembler.buffered_bytes == 0
            return frames[0], received


#: The deadline a default :class:`DebugClient` sends (its 10 s timeout).
DEADLINE_MS = 10_000


def test_binary_reply_frames_have_pinned_sizes(sc1x1):
    chunks = per_record_chunks(sc1x1, seed=0)
    # handle 0: the first OPEN of a connection gets its first handle
    request = protocol.encode_session_request(0, deadline_ms=DEADLINE_MS)
    handle = start_server(sc1x1, ServerConfig(shards=1))
    sock = socket.create_connection((handle.host, handle.port), timeout=5)

    def reply(request_type, payload):
        frame, size = exchange(sock, request_type, payload)
        assert frame.frame_type == protocol.OK
        return protocol.decode_reply(
            request_type, frame.frame_type, frame.payload
        ), size

    try:
        # a 4-byte header (the leading byte, the type, one varint byte
        # each for seq 1 and a length below 128) and the 2-byte CRC
        # frame every reply below; the requests as a default client
        # sends them: on OPEN the 5-byte id behind its length byte, the
        # flag byte, the 2-byte varint deadline and the 8-character
        # token behind its length byte; on SNAPSHOT and CLOSE the
        # one-byte handle, the flag byte and the deadline
        open_request = protocol.encode_open_payload(
            "sized", token="1234abcd", deadline_ms=DEADLINE_MS
        )
        assert len(open_request) == 1 + 5 + 1 + 2 + 1 + 8
        assert len(request) == 1 + 1 + 2
        # flags, one varint byte each for shard 0 and handle 0, then
        # the transport and the mode, each behind its length byte (26 B
        # with version 4's id, 81 B as version 2's JSON)
        assert reply(protocol.OPEN_SESSION, open_request) == (
            {
                "shard": 0, "handle": 0, "transport": "text",
                "mode": "prefix",
            },
            4 + 1 + 1 + 1 + 5 + 7 + 2,
        )
        # status and flag bytes, one varint byte per field below 128
        # and two for 2040 and 3150
        assert reply(
            protocol.FEED_CHUNK,
            protocol.encode_feed_request(0, 0, chunks[0]),
        ) == (
            {
                "status": "active", "duplicate": False, "chunk_index": 0,
                "consumed": 1, "records": 1, "observed_length": 1,
                "frontier_size": 6, "next_chunk": 1,
            },
            4 + 2 + 6 + 2,
        )
        assert reply(protocol.SNAPSHOT, request) == (
            {
                "status": "active", "consistent_paths": 2040,
                "total_paths": 3150, "observed_length": 1, "next_chunk": 1,
            },
            4 + 2 + 6 + 2,
        )
        assert reply(protocol.CLOSE_SESSION, request) == (
            {
                "status": "closed", "records": 1, "observed_length": 1,
                "consistent_paths": 2040, "total_paths": 3150,
                "next_chunk": 1,
            },
            4 + 2 + 7 + 2,
        )
    finally:
        sock.close()
        handle.thread.stop()


def test_a_client_sends_the_pinned_request_frames(sc1x1):
    # OPEN 24 B for the 5-byte id, SNAPSHOT and CLOSE 10 B each for its
    # one-byte handle, at a one-byte seq (24, 15 and 15 B at protocol
    # version 4; 34, 25 and 25 B at version 3; 94, 56 and 56 B as the
    # key-sorted JSON of version 2)
    handle = start_server(sc1x1, ServerConfig(shards=1))
    sent = []
    try:
        with DebugClient(handle.host, handle.port) as client:
            roundtrip = client._roundtrip

            def recorded(frame_type, payload):
                sent.append((frame_type, len(
                    protocol.encode_frame(frame_type, 0, payload)
                )))
                return roundtrip(frame_type, payload)

            client._roundtrip = recorded
            client.open_session("sized")
            client.snapshot("sized")
            client.close_session("sized")
    finally:
        handle.thread.stop()
    assert sent == [
        (protocol.OPEN_SESSION, 24),
        (protocol.SNAPSHOT, 10),
        (protocol.CLOSE_SESSION, 10),
    ]


def wire_bytes_per_record(context, snapshot_every_feed):
    """Feed 20 captures of *context* one record per FEED through
    :class:`SessionFeed`, with a SNAPSHOT after every FEED or none;
    returns the server's wire bytes per record fed."""
    handle = start_server(context, ServerConfig(shards=2))
    try:
        with DebugClient(handle.host, handle.port) as client:
            for seed in range(20):
                chunks = per_record_chunks(context, seed)
                feed = SessionFeed(client, session_id=f"wire-{seed:02d}")
                for index, chunk in enumerate(chunks):
                    feed.feed(chunk, eof=index == len(chunks) - 1)
                    if snapshot_every_feed:
                        feed.snapshot()
                assert feed.close().status == "closed"
            counters = client.stats()["counters"]
            # the STATS request itself (an empty frame) was counted in
            stats_request = len(
                protocol.encode_frame(protocol.STATS, client._seq)
            )
    finally:
        handle.thread.stop()
    wire = (
        counters["wire_bytes_in"] + counters["wire_bytes_out"]
        - stats_request
    )
    records = counters["records_fed_total"]
    assert records >= 20
    return wire / records


def test_wire_bytes_per_record_stay_under_70(sc1x1):
    # 62.4 B at protocol version 5's session handles, 74.4 B at version
    # 4, 96.8 B at version 3, 116.5 B at version 2
    per_record = wire_bytes_per_record(sc1x1, snapshot_every_feed=False)
    assert per_record <= 70, per_record


def test_polled_wire_bytes_per_record_stay_under_95():
    # a window server polled after every FEED: 88.05 B at protocol
    # version 5, 107.05 B at version 4, 145.4 B at version 3, 196.2 B
    # at version 2
    window = ServeContext.from_scenario(1, instances=1, mode="window")
    per_record = wire_bytes_per_record(window, snapshot_every_feed=True)
    assert per_record <= 95, per_record
