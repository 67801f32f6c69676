"""What a debugger exchanges per record: the binary OK replies' exact
frame sizes, and the server's own byte counters over 20 scenario-1
captures fed one record per FEED (the ``per-record`` workload of
``bench/``, in process)."""

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


def test_binary_reply_frames_have_pinned_sizes(sc1x1):
    chunks = per_record_chunks(sc1x1, seed=0)
    request = protocol.encode_json({"session_id": "sized"})
    handle = start_server(sc1x1, ServerConfig(shards=1))
    sock = socket.create_connection((handle.host, handle.port), timeout=5)

    def reply(request_type, payload):
        frame, size = exchange(sock, request_type, payload)
        assert frame.frame_type == protocol.OK
        return protocol.decode_reply(
            request_type, frame.frame_type, frame.payload
        ), size

    try:
        reply(protocol.OPEN_SESSION, request)
        # 12-byte header, status and flag bytes, one varint byte per
        # field below 128 and two for 2040 and 3150, 2-byte CRC
        assert reply(
            protocol.FEED_CHUNK,
            protocol.encode_feed_payload("sized", 0, chunks[0]),
        ) == (
            {
                "status": "active", "duplicate": False, "chunk_index": 0,
                "consumed": 1, "records": 1, "observed_length": 1,
                "frontier_size": 6, "next_chunk": 1,
            },
            12 + 2 + 6 + 2,
        )
        assert reply(protocol.SNAPSHOT, request) == (
            {
                "status": "active", "consistent_paths": 2040,
                "total_paths": 3150, "observed_length": 1, "next_chunk": 1,
            },
            12 + 2 + 6 + 2,
        )
        assert reply(protocol.CLOSE_SESSION, request) == (
            {
                "status": "closed", "records": 1, "observed_length": 1,
                "consistent_paths": 2040, "total_paths": 3150,
                "next_chunk": 1,
            },
            12 + 2 + 7 + 2,
        )
    finally:
        sock.close()
        handle.thread.stop()


def test_wire_bytes_per_record_stay_under_200(sc1x1):
    handle = start_server(sc1x1, ServerConfig(shards=2))
    try:
        with DebugClient(handle.host, handle.port) as client:
            for seed in range(20):
                chunks = per_record_chunks(sc1x1, seed)
                feed = SessionFeed(client, session_id=f"wire-{seed:02d}")
                for index, chunk in enumerate(chunks):
                    feed.feed(chunk, eof=index == len(chunks) - 1)
                assert feed.close().status == "closed"
            counters = client.stats()["counters"]
    finally:
        handle.thread.stop()
    # the STATS request itself (an empty frame) was counted in
    wire = (
        counters["wire_bytes_in"] + counters["wire_bytes_out"]
        - (protocol.HEADER_BYTES + protocol.TRAILER_BYTES)
    )
    records = counters["records_fed_total"]
    assert records >= 20
    assert wire / records <= 200, wire / records
