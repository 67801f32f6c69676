"""End-to-end server tests over the real wire: session lifecycle,
idempotent feeds, admission control under overload, robustness against
malformed frames and mid-chunk disconnects, metrics, and drain."""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
import urllib.request

import pytest

from repro import perf
from repro.cli import main
from repro.errors import (
    ProtocolError,
    ServerError,
    ServerUnavailableError,
    StoreError,
    StreamError,
)
from repro.server import (
    DebugClient,
    RetryPolicy,
    ServeContext,
    ServerConfig,
    ServerThread,
    SessionFeed,
    protocol,
)
from repro.server.loadgen import render_session_chunks
from repro.server.server import DebugServer
from repro.server.shard import Shard
from tests.server.conftest import start_server


def feed_all(client, session_id, chunks):
    replies = []
    for i, chunk in enumerate(chunks):
        replies.append(
            client.feed(
                session_id, i, chunk, eof=(i == len(chunks) - 1)
            )
        )
    return replies


def test_session_lifecycle_over_the_wire(running, client):
    chunks = render_session_chunks(running.context, seed=1, chunk_records=4)
    sid = client.open_session("wire-1")
    assert sid == "wire-1"
    replies = feed_all(client, sid, chunks)
    assert all(not r.duplicate for r in replies)
    fed = sum(r.consumed for r in replies)
    assert fed > 0
    snap = client.snapshot(sid)
    assert snap.observed_length == fed
    assert 0 < snap.result.consistent_paths <= snap.result.total_paths
    close = client.close_session(sid)
    assert close.status == "closed"
    assert close.records == fed
    assert close.result == snap.result


def test_generated_session_ids_are_unique(running, client):
    first = client.open_session()
    second = client.open_session()
    assert first != second
    client.close_session(first)
    client.close_session(second)


def test_duplicate_open_is_an_error(running, client):
    client.open_session("dup")
    with pytest.raises(ServerError) as excinfo:
        client.open_session("dup")
    assert excinfo.value.code == "session-exists"


def test_unknown_session_operations_fail_structurally(running, client):
    for operation in (
        lambda: client.feed("ghost", 0, b"x"),
        lambda: client.snapshot("ghost"),
        lambda: client.close_session("ghost"),
    ):
        with pytest.raises(ServerError) as excinfo:
            operation()
        assert excinfo.value.code == "unknown-session"


def test_duplicate_chunk_is_acknowledged_not_reapplied(running, client):
    chunks = render_session_chunks(running.context, seed=2, chunk_records=4)
    sid = client.open_session("idem")
    first = client.feed(sid, 0, chunks[0])
    replay = client.feed(sid, 0, chunks[0])  # retransmit
    assert replay.duplicate
    assert replay.consumed == 0
    assert replay.observed_length == first.observed_length
    snap = client.snapshot(sid)
    assert snap.observed_length == first.observed_length


def test_chunk_gap_is_rejected(running, client):
    chunks = render_session_chunks(running.context, seed=2, chunk_records=4)
    sid = client.open_session("gap")
    client.feed(sid, 0, chunks[0])
    with pytest.raises(ServerError) as excinfo:
        client.feed(sid, 5, chunks[1])
    assert excinfo.value.code == "chunk-gap"


def test_bad_transport_rejected(running, client):
    with pytest.raises(ServerError) as excinfo:
        client.open_session("bad", transport="carrier-pigeon")
    assert excinfo.value.code == "protocol"


def test_feed_parses_every_catalog_message():
    """The served parser reads the scenario's catalog, a superset of
    the messages its flows use: a line naming a catalog-only message
    counts as a parsed record (dropped as invisible), not as a parse
    diagnostic."""
    context = ServeContext.from_scenario(1, instances=1, buffer_width=16)
    in_flows = {m.name for m in context.interleaved.messages}
    extra = sorted(set(context.catalog) - in_flows)
    assert extra
    text = f'# repro-trace v1 scenario="catalog" seed=0\n5 1:{extra[0]} 0x0\n'
    handle = start_server(context, ServerConfig(shards=1))
    try:
        with DebugClient(handle.host, handle.port) as client:
            client.open_session("catalog")
            reply = client.feed("catalog", 0, text.encode("utf-8"), eof=True)
            assert (reply.records, reply.consumed) == (1, 0)
    finally:
        handle.thread.stop()


def test_ping_and_stats(running, client):
    pong = client.ping()
    assert pong["version"] == protocol.PROTOCOL_VERSION
    assert pong["scenario"] == "cc-test"
    sid = client.open_session("stats")
    client.feed(sid, 0, b"# repro-trace v1 scenario=\"x\" seed=0\n")
    stats = client.stats()
    assert stats["counters"]["opens_total"] >= 1
    assert stats["counters"]["feeds_total"] >= 1
    assert stats["server"]["open_sessions"] >= 1
    assert "shards" in stats and "runtime_cache" in stats
    assert "perf" not in stats
    client.close_session(sid)


def test_session_routing_is_deterministic(running, client):
    # the same id always lands on the same shard (consistent hashing)
    sid = client.open_session("routed")
    shard = running.server.ring.shard_for(sid)
    for _ in range(3):
        assert running.server.ring.shard_for(sid) == shard
    client.close_session(sid)


# ----------------------------------------------------------------------
# admission control
def test_session_table_full_returns_retry_later(context):
    handle = start_server(
        context, ServerConfig(shards=1, max_sessions=1)
    )
    try:
        with DebugClient(handle.host, handle.port) as holder:
            holder.open_session("occupier")
            fast = RetryPolicy(max_attempts=3, base_delay_s=0.01)
            with DebugClient(
                handle.host, handle.port, policy=fast
            ) as second:
                with pytest.raises(ServerUnavailableError, match="RETRY"):
                    second.open_session("blocked")
                assert second.retries == 2
            assert handle.thread.call(
                lambda: handle.server.metrics.get("retry_later_total")
            ) >= 3
            # capacity freed -> the same open converges
            holder.close_session("occupier")
            with DebugClient(handle.host, handle.port) as third:
                assert third.open_session("blocked") == "blocked"
    finally:
        handle.thread.stop()


def test_pipelined_opens_respect_the_global_session_cap(context):
    # each OPEN runs before the next frame of the same read is
    # admitted: six OPENs in one write must not fill shards x
    # max_sessions
    handle = start_server(
        context, ServerConfig(shards=2, max_sessions=2)
    )
    try:
        sock = _raw_connection(handle)
        try:
            sock.sendall(b"".join(
                protocol.encode_frame(
                    protocol.OPEN_SESSION,
                    seq,
                    protocol.encode_open_payload(f"x{seq}"),
                )
                for seq in range(6)
            ))
            replies = _read_frames(sock, 6)
        finally:
            sock.close()
        kinds = [frame.frame_type for frame in replies]
        assert kinds.count(protocol.OK) == 2
        refusals = [
            json.loads(frame.payload)["reason"]
            for frame in replies
            if frame.frame_type == protocol.RETRY_LATER
        ]
        assert refusals == ["session-table-full"] * 4
        with DebugClient(handle.host, handle.port) as client:
            assert client.stats()["server"]["open_sessions"] == 2
    finally:
        handle.thread.stop()


async def _exchange(reader, writer, assembler, frames):
    """Send *frames* in one write; returns their replies as they
    arrive."""
    writer.write(b"".join(frames))
    await writer.drain()
    replies = []
    while len(replies) < len(frames):
        data = await asyncio.wait_for(reader.read(65536), timeout=5.0)
        assert data, "server closed the connection"
        replies.extend(assembler.feed(data))
    return replies


def _open_frame(seq, session_id):
    return protocol.encode_frame(
        protocol.OPEN_SESSION, seq,
        protocol.encode_open_payload(session_id),
    )


def _feed_frame(seq, handle, index, chunk, deadline_ms=None):
    return protocol.encode_frame(
        protocol.FEED_CHUNK, seq,
        protocol.encode_feed_request(
            handle, index, chunk, deadline_ms=deadline_ms
        ),
    )


def _pipelined_feeds(context, session_id, deadlines):
    """Open *session_id* on a one-shard server, send one FEED per entry
    of *deadlines* (its ``deadline_ms``) in one write, then SNAPSHOT;
    returns the FEED replies and the snapshot's body."""
    chunks = render_session_chunks(context, seed=3, chunk_records=1)
    assert len(chunks) >= len(deadlines)

    async def scenario():
        server = DebugServer(context, ServerConfig(shards=1))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        assembler = protocol.FrameAssembler()
        try:
            (opened,) = await _exchange(reader, writer, assembler, [
                _open_frame(0, session_id),
            ])
            assert opened.frame_type == protocol.OK
            handle = protocol.decode_reply(
                protocol.OPEN_SESSION, opened.frame_type, opened.payload
            )["handle"]
            fed = await _exchange(reader, writer, assembler, [
                _feed_frame(1 + index, handle, index, chunk, deadline)
                for index, (chunk, deadline) in enumerate(
                    zip(chunks, deadlines)
                )
            ])
            (snapshot,) = await _exchange(reader, writer, assembler, [
                protocol.encode_frame(
                    protocol.SNAPSHOT, len(deadlines) + 1,
                    protocol.encode_session_request(handle),
                )
            ])
        finally:
            writer.close()
            await server.stop()
        return fed, snapshot

    fed, snapshot = asyncio.run(scenario())
    body = protocol.decode_reply(
        protocol.SNAPSHOT, snapshot.frame_type, snapshot.payload
    )
    return fed, body


def test_pipelined_feeds_are_answered_in_order(context):
    # four FEEDs in one write reach the server in one read: each runs
    # before the next is admitted, and each reply goes out in order
    fed, body = _pipelined_feeds(context, "piped", [None] * 4)
    assert [(frame.seq, frame.frame_type) for frame in fed] == [
        (seq, protocol.OK) for seq in range(1, 5)
    ]
    assert body["next_chunk"] == 4


def _slow_ops(monkeypatch):
    """Make every FEED op take 30 ms."""
    feed = Shard.feed

    def slow_feed(self, *args):
        time.sleep(0.03)
        return feed(self, *args)

    monkeypatch.setattr(Shard, "feed", slow_feed)


def _slow_replies(monkeypatch):
    """Make every reply's write wait 30 ms, as ``drain()`` does while
    a client's receive buffer is full."""
    send = DebugServer._send

    async def slow_send(self, *args):
        await asyncio.sleep(0.03)
        await send(self, *args)

    monkeypatch.setattr(DebugServer, "_send", slow_send)


@pytest.mark.parametrize(
    "slow_down",
    [
        # the backlog the per-shard queue-depth limit used to refuse
        # past: FEEDs waiting on earlier ops
        pytest.param(_slow_ops, id="queue-full-limit"),
        # the backlog the per-connection in-flight cap used to refuse
        # past: FEEDs waiting on earlier replies
        pytest.param(_slow_replies, id="inflight-cap-limit"),
    ],
)
def test_pipelined_feeds_past_a_cap_are_refused_without_effect(
    context, monkeypatch, slow_down
):
    # four FEEDs in one write reach the server in one read, and the
    # two leading ones are slow; the cap left on pipelined work is the
    # request deadline, counted from that read, so the two behind them
    # run past their 10 ms and are refused -- and a refused FEED must
    # not move the session's chunk cursor
    slow_down(monkeypatch)
    fed, body = _pipelined_feeds(context, "capped", [None, None, 10, 10])
    assert [(frame.seq, frame.frame_type) for frame in fed] == [
        (1, protocol.OK), (2, protocol.OK),
        (3, protocol.RETRY_LATER), (4, protocol.RETRY_LATER),
    ]
    assert [json.loads(frame.payload)["reason"] for frame in fed[2:]] == [
        "deadline-exceeded", "deadline-exceeded",
    ]
    assert body["next_chunk"] == 2


def test_stats_served_even_when_saturated(context):
    handle = start_server(
        context, ServerConfig(shards=1, max_sessions=0)
    )
    try:
        with DebugClient(handle.host, handle.port) as client:
            # no session can be admitted, but the metrics plane answers
            assert "counters" in client.stats()
            assert client.ping()["scenario"] == "cc-test"
    finally:
        handle.thread.stop()


# ----------------------------------------------------------------------
# wire-level robustness (raw sockets, no client conveniences)
def _raw_connection(handle):
    sock = socket.create_connection((handle.host, handle.port), timeout=5)
    sock.settimeout(5)
    return sock


def _read_frames(sock, count):
    assembler = protocol.FrameAssembler()
    frames = []
    while len(frames) < count:
        data = sock.recv(65536)
        if not data:
            raise EOFError("server closed the connection")
        frames.extend(assembler.feed(data))
    return frames


def _read_one_frame(sock):
    return _read_frames(sock, 1)[0]


def test_garbage_bytes_get_error_reply_then_close(running):
    sock = _raw_connection(running)
    try:
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        body = json.loads(frame.payload)
        assert body["error"] == "protocol"
        assert sock.recv(65536) == b""  # connection closed
    finally:
        sock.close()


def test_crc_corrupted_frame_is_fatal_for_connection(running):
    sock = _raw_connection(running)
    try:
        raw = bytearray(protocol.encode_frame(protocol.PING, 1))
        raw[-1] ^= 0xFF
        sock.sendall(bytes(raw))
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        assert json.loads(frame.payload)["error"] == "protocol"
    finally:
        sock.close()


def test_oversized_payload_rejected(running):
    sock = _raw_connection(running)
    try:
        header = (
            bytes((protocol.MAGIC | protocol.PROTOCOL_VERSION, protocol.PING))
            + b"\x01"  # seq 1
            + b"\x80\x80\x80\x80\x04"  # length 1 << 30
        )
        sock.sendall(header)
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        assert "exceeds" in json.loads(frame.payload)["message"]
    finally:
        sock.close()


def test_unknown_request_type_gets_structured_error(running):
    sock = _raw_connection(running)
    try:
        sock.sendall(protocol.encode_frame(0x7F, 9, b""))
        frame = _read_one_frame(sock)
        assert frame.frame_type == protocol.ERROR
        assert frame.seq == 9
        assert json.loads(frame.payload)["error"] == "bad-request"
    finally:
        sock.close()


#: The flags of the requests that name a session by id: an OPEN and an
#: ATTACH (a FEED, SNAPSHOT or CLOSE names its session by handle).
NAMING_FLAGS = (0, protocol.FLAG_ATTACH)


def _naming(sid, flags):
    """An OPEN (or ATTACH) payload naming the raw id bytes *sid*,
    which no encoder would write."""
    return bytes((len(sid),)) + sid + bytes((flags,))


def test_ids_feed_cannot_carry_are_refused_on_every_request(
    running, client
):
    # a FEED id is 1..255 bytes, and so is every other request's: an
    # empty id is refused by the server, a 300-byte one by the client
    # before it sends (no length byte can say 300), and no session opens
    for flags in NAMING_FLAGS:
        frame_type, body = client.request(
            protocol.OPEN_SESSION, _naming(b"", flags)
        )
        assert frame_type == protocol.ERROR
        assert body["error"] == "protocol"
        assert "1..255 bytes" in body["message"]
    for request in (
        client.open_session, client.snapshot, client.close_session
    ):
        with pytest.raises(ProtocolError, match="1..255 bytes"):
            request("x" * 300)
    assert client.stats()["server"]["open_sessions"] == 0


def test_lone_surrogate_id_gets_an_error_and_keeps_the_connection(
    running,
):
    # an id whose bytes are not UTF-8 (the surrogate U+D800 spelled
    # as UTF-8 would spell it) is refused with a reply, and the
    # connection keeps serving
    with DebugClient(
        running.host, running.port, policy=RetryPolicy(max_attempts=1)
    ) as client:
        for flags in NAMING_FLAGS:
            frame_type, body = client.request(
                protocol.OPEN_SESSION, _naming(b"\xed\xa0\x80", flags)
            )
            assert frame_type == protocol.ERROR
            assert body["error"] == "protocol"
            assert "session id" in body["message"]
        assert client.ping()["scenario"] == "cc-test"
        stats = client.stats()
        assert stats["counters"]["connections_total"] == 1
        assert stats["server"]["open_sessions"] == 0


def test_mid_frame_disconnect_does_not_wedge_server(running):
    # drop the connection halfway through a frame, then verify the
    # server still serves a fresh client
    raw = protocol.encode_frame(
        protocol.FEED_CHUNK,
        1,
        protocol.encode_feed_payload("torn", 0, b"x" * 512),
    )
    sock = _raw_connection(running)
    sock.sendall(raw[: len(raw) // 2])
    sock.close()
    with DebugClient(running.host, running.port) as client:
        assert client.ping()["scenario"] == "cc-test"


def test_mid_chunk_disconnect_preserves_session_state(running):
    # a session fed from a connection that dies survives: a new
    # connection picks it up where the last applied chunk left it
    chunks = render_session_chunks(running.context, seed=4, chunk_records=4)
    first = DebugClient(running.host, running.port)
    sid = first.open_session("torn-session")
    reply = first.feed(sid, 0, chunks[0])
    first._sock.close()  # simulate the validator host dying
    with DebugClient(running.host, running.port) as second:
        snap = second.snapshot(sid)
        assert snap.observed_length == reply.observed_length
        second.feed(sid, 1, chunks[1])
        second.close_session(sid)


# ----------------------------------------------------------------------
def test_http_metrics_endpoint(context):
    handle = start_server(
        context, ServerConfig(shards=1, metrics_port=0)
    )
    try:
        port = handle.server.metrics_port
        assert port
        body = urllib.request.urlopen(
            f"http://{handle.host}:{port}/metrics", timeout=5
        ).read()
        doc = json.loads(body)
        assert "counters" in doc
        assert doc["server"]["scenario"] == "cc-test"
    finally:
        handle.thread.stop()


def test_stats_metrics_and_profile_render_one_registry(context, capsys):
    handle = start_server(
        context, ServerConfig(shards=1, metrics_port=0)
    )
    try:
        with DebugClient(handle.host, handle.port) as client:
            sid = client.open_session("one-registry")
            chunks = render_session_chunks(context, seed=3, chunk_records=4)
            client.feed(sid, 0, chunks[0])
            stats = client.stats()
        scraped = json.loads(urllib.request.urlopen(
            f"http://{handle.host}:{handle.server.metrics_port}/metrics",
            timeout=5,
        ).read())
    finally:
        handle.thread.stop()
    assert main(["profile", "1", "--json"]) == 0
    profile = json.loads(capsys.readouterr().out)
    summary_keys = {
        "count", "sum_s", "mean_s", "p50_s", "p95_s", "p99_s", "max_s",
    }
    for doc in (stats, scraped, profile):
        assert "perf" not in doc
        assert all(isinstance(n, int) for n in doc["counters"].values())
        for summary in doc["histograms"].values():
            assert set(summary) == summary_keys
    assert set(scraped) == set(stats)
    # the library's counters land beside the server's own
    assert stats["counters"]["feeds_total"] == 1
    assert stats["counters"]["localize_kernel_batches"] >= 1
    assert stats["histograms"]["feed_latency_s"]["count"] == 1
    assert profile["histograms"]["localize"]["count"] == 1
    assert profile["counters"]["localize_kernel_batches"] >= 1


def test_feed_latency_runs_from_admission(context, monkeypatch):
    # a request's latency runs from its admission to its reply, so a
    # slow op shows in the histogram
    feed = Shard.feed

    def slow_feed(self, *args):
        time.sleep(0.05)
        return feed(self, *args)

    monkeypatch.setattr(Shard, "feed", slow_feed)
    chunks = render_session_chunks(context, seed=3, chunk_records=4)
    handle = start_server(context, ServerConfig(shards=1))
    try:
        with DebugClient(handle.host, handle.port) as client:
            client.open_session("slow")
            client.feed("slow", 0, chunks[0])
            latency = client.stats()["histograms"]["feed_latency_s"]
    finally:
        handle.thread.stop()
    assert latency["count"] == 1
    assert latency["max_s"] >= 0.05


def test_window_snapshots_time_the_window_dp_once_per_window(context):
    window = ServeContext.from_components(
        context.interleaved, context.traced, name="cc-window",
        mode="window",
    )
    handle = start_server(window, ServerConfig(shards=1))
    try:
        with DebugClient(handle.host, handle.port) as client:
            sid = client.open_session("timed-window")
            chunks = render_session_chunks(window, seed=3, chunk_records=4)
            client.feed(sid, 0, chunks[0])
            client.snapshot(sid)
            first = client.stats()
            client.snapshot(sid)
            second = client.stats()
    finally:
        handle.thread.stop()
    assert first["histograms"]["window_count"]["count"] == 1
    # the repeated SNAPSHOT is a memo hit: no second DP
    assert second["histograms"]["window_count"]["count"] == 1
    hits = "localize_window_memo_hits"
    assert second["counters"][hits] == first["counters"].get(hits, 0) + 1


def test_retried_open_at_the_global_cap_is_answered(context):
    # the first OPEN's reply is lost and the table is full; the retry
    # carries the same token and adds no session, so no cap refuses it
    handle = start_server(context, ServerConfig(shards=1, max_sessions=1))
    try:
        with DebugClient(
            handle.host, handle.port, policy=RetryPolicy(max_attempts=1)
        ) as client:
            request = protocol.encode_open_payload("s", token="1234abcd")
            client.request(protocol.OPEN_SESSION, request)
            frame_type, reply = client.request(
                protocol.OPEN_SESSION, request
            )
            assert frame_type == protocol.OK
            assert reply["resumed"] is True
            with pytest.raises(ServerUnavailableError, match="table-full"):
                client.open_session("t")
    finally:
        handle.thread.stop()


def _open_unnamed(client, token="0000abcd"):
    """One id-less OPEN carrying *token*: ``(frame type, reply)``."""
    return client.request(
        protocol.OPEN_SESSION, protocol.encode_open_payload(token=token)
    )


def test_retried_unnamed_open_reaches_the_same_session(context):
    # the first OPEN's reply is lost; its retry must find the session
    # the server generated for it, not open an orphan beside it
    handle = start_server(context, ServerConfig(shards=2))
    try:
        with DebugClient(handle.host, handle.port) as client:
            _, first = _open_unnamed(client)
            frame_type, retry = _open_unnamed(client)
            assert frame_type == protocol.OK
            # the same handle: the same incarnation of the same session
            assert retry["handle"] == first["handle"]
            assert retry["resumed"] is True
            assert client.stats()["server"]["open_sessions"] == 1
            # another token is another OPEN
            _, other = _open_unnamed(client, token="feedf00d")
            assert other["handle"] != first["handle"]
            assert client.stats()["server"]["open_sessions"] == 2
    finally:
        handle.thread.stop()


def test_retried_unnamed_open_at_the_global_cap_is_answered(context):
    handle = start_server(context, ServerConfig(shards=1, max_sessions=1))
    try:
        with DebugClient(
            handle.host, handle.port, policy=RetryPolicy(max_attempts=1)
        ) as client:
            _, first = _open_unnamed(client)
            frame_type, retry = _open_unnamed(client)
            assert frame_type == protocol.OK
            assert retry["handle"] == first["handle"]
            assert retry["resumed"] is True
    finally:
        handle.thread.stop()


def test_retried_unnamed_open_after_a_durable_restart(context, tmp_path):
    config = ServerConfig(shards=2, data_dir=str(tmp_path), fsync="off")
    handle = start_server(context, config)
    try:
        with DebugClient(handle.host, handle.port) as client:
            frame_type, _ = _open_unnamed(client)
            assert frame_type == protocol.OK
    finally:
        handle.thread.stop()
    handle = start_server(context, config)
    try:
        with DebugClient(handle.host, handle.port) as client:
            frame_type, retry = _open_unnamed(client)
            assert frame_type == protocol.OK
            # the retry reached the recovered session: no orphan
            assert retry["resumed"] is True
            assert client.stats()["server"]["open_sessions"] == 1
            # a new OPEN still draws an id no durable session holds
            frame_type, fresh = _open_unnamed(client, token="feedf00d")
            assert frame_type == protocol.OK
            assert "resumed" not in fresh
            assert client.stats()["server"]["open_sessions"] == 2
    finally:
        handle.thread.stop()


def test_abort_mid_session_leaves_no_task_pending(context):
    # a client is still connected, mid-session, when the server
    # crashes: the abort tears its connection down and no task
    # outlives the stop
    chunks = render_session_chunks(context, seed=3, chunk_records=1)

    async def scenario():
        server = DebugServer(context, ServerConfig(shards=1))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            # handle 0: a connection's first OPEN gets its first handle
            replies = await _exchange(
                reader, writer, protocol.FrameAssembler(),
                [_open_frame(0, "crashed"),
                 _feed_frame(1, 0, 0, chunks[0])],
            )
            assert [frame.frame_type for frame in replies] == [
                protocol.OK, protocol.OK,
            ]
            await asyncio.wait_for(server.stop(abort=True), timeout=10.0)
        finally:
            writer.close()
        await asyncio.sleep(0.05)
        return [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]

    assert asyncio.run(scenario()) == []


def test_serving_a_session_creates_no_task_beyond_its_connection(context):
    # each request's op and reply run inline in its connection's
    # handler: of the server's own code, a whole session over one
    # connection starts that handler's task and no other (asyncio's
    # accept machinery starts one more task of its own)
    handle = start_server(context, ServerConfig(shards=1))
    loop = handle.thread._loop
    created = []
    swapped = threading.Event()

    def counting_factory(task_loop, coro, **kwargs):
        if coro.cr_frame.f_globals["__name__"].startswith("repro."):
            created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=task_loop, **kwargs)

    def set_factory(factory):
        loop.set_task_factory(factory)
        swapped.set()

    try:
        loop.call_soon_threadsafe(set_factory, counting_factory)
        assert swapped.wait(5.0)
        chunks = render_session_chunks(context, seed=6, chunk_records=4)
        with DebugClient(handle.host, handle.port) as client:
            sid = client.open_session("untasked")
            feed_all(client, sid, chunks)
            client.snapshot(sid)
            assert client.close_session(sid).status == "closed"
        tasks = list(created)
    finally:
        handle.thread.stop()
    assert tasks == ["DebugServer._handle_connection"]


def test_call_runs_on_the_loop_and_refuses_a_server_not_running(
    context, taken_port
):
    handle = start_server(context, ServerConfig(shards=1))
    try:
        name = handle.thread.call(lambda: threading.current_thread().name)
        assert name == "repro-server"
        with pytest.raises(ZeroDivisionError):
            handle.thread.call(lambda: 1 // 0)
    finally:
        handle.thread.stop()
    failed = ServerThread(context, ServerConfig(port=taken_port))
    with pytest.raises(OSError):
        failed.start()
    for thread in (handle.thread, failed):
        with pytest.raises(StreamError, match="not running"):
            thread.call(lambda: None)
    failed.stop()  # returns at once: there is no loop to release


@pytest.mark.skipif(
    not sys.flags.dev_mode, reason="the owner check runs under python -X dev"
)
def test_dev_mode_refuses_loop_state_read_off_the_loop(context, tmp_path):
    # the alerts and a shard's store belong to the loop's thread: a
    # read from this thread raises, the same read through call passes
    handle = start_server(
        context, ServerConfig(shards=1, data_dir=str(tmp_path), fsync="off")
    )
    try:
        server = handle.server
        store = server.shard_for("s").store
        reads = {
            "DebugServer.health": server.health,
            "DebugServer._alert": lambda: server._alert("probe"),
            "SessionStore.stats": store.stats,
            "SessionStore.spilled_ids": store.spilled_ids,
        }
        for name, read in reads.items():
            with pytest.raises(RuntimeError, match=f"{name} called from"):
                read()
            handle.thread.call(read)
        health = handle.thread.call(server.health)
        assert [alert["kind"] for alert in health["alerts"]] == ["probe"]
    finally:
        handle.thread.stop()


def test_two_servers_in_one_process_count_only_their_own_work(context):
    # each server's collector is active on its own loop thread only
    chunks = render_session_chunks(context, seed=7, chunk_records=2)
    assert len(chunks) >= 3
    busy = start_server(context, ServerConfig(shards=1))
    idle = start_server(context, ServerConfig(shards=1))
    try:
        with DebugClient(busy.host, busy.port) as client:
            client.open_session("busy")
            for index in range(3):
                client.feed("busy", index, chunks[index])
            counters = client.stats()["counters"]
        assert counters["localize_kernel_batches"] == 3
        with DebugClient(idle.host, idle.port) as client:
            counters = client.stats()["counters"]
        assert counters.get("localize_kernel_batches", 0) == 0
    finally:
        busy.thread.stop()
        idle.thread.stop()


def test_serving_starts_no_thread_beyond_the_event_loop(context):
    # every shard's ops run on the server's event loop: a thread per
    # shard would cost two hand-offs per op and a malloc arena each
    before = set(threading.enumerate())
    handle = start_server(context, ServerConfig(shards=2))
    try:
        sids = [f"loop{n}" for n in range(4)]
        assert {handle.server.ring.shard_for(sid) for sid in sids} == {0, 1}
        chunks = render_session_chunks(context, seed=6, chunk_records=4)
        with DebugClient(handle.host, handle.port) as client:
            for sid in sids:
                client.open_session(sid)
                feed_all(client, sid, chunks)
                client.snapshot(sid)
                assert client.close_session(sid).status == "closed"
        started = set(threading.enumerate()) - before
        assert sorted(thread.name for thread in started) == ["repro-server"]
    finally:
        handle.thread.stop()


def test_graceful_drain_with_open_sessions(context):
    handle = start_server(context, ServerConfig(shards=2))
    client = DebugClient(handle.host, handle.port)
    feed = SessionFeed(client, session_id="draining")
    chunks = render_session_chunks(context, seed=5, chunk_records=4)
    feed.feed(chunks[0])
    client.close()
    # stop() drains: must complete promptly without deadlocking even
    # though a session is still open
    handle.thread.stop()
    assert handle.server._draining


def test_sessions_idle_evicted(context):
    handle = start_server(
        context,
        ServerConfig(
            shards=1, idle_timeout_s=0.05, idle_sweep_s=0.02
        ),
    )
    try:
        with DebugClient(handle.host, handle.port) as client:
            sid = client.open_session("idler")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                shard_stats = handle.thread.call(
                    lambda: handle.server.shard_for(sid).manager.stats()
                )
                if shard_stats["evicted"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("idle session was never evicted")
            with pytest.raises(ServerError) as excinfo:
                client.snapshot(sid)
            assert excinfo.value.code == "unknown-session"
    finally:
        handle.thread.stop()


# ----------------------------------------------------------------------
@pytest.fixture
def taken_port():
    """A port some other socket is already listening on."""
    holder = socket.socket()
    holder.bind(("127.0.0.1", 0))
    holder.listen()
    yield holder.getsockname()[1]
    holder.close()


def _failed_start(context, config):
    # started on this thread, whose active perf collections the
    # collector check reads
    server = DebugServer(context, config)
    with pytest.raises(OSError):
        asyncio.run(server.start())
    return server


def _collector_active(server):
    return any(active is server.metrics for active in perf._ACTIVE.active)


def test_failed_start_on_a_taken_port_releases_everything(
    context, taken_port, tmp_path
):
    server = _failed_start(
        context, ServerConfig(port=taken_port, data_dir=str(tmp_path))
    )
    assert not _collector_active(server)
    shards = {server.shard_for(f"s{n}") for n in range(16)}
    assert len(shards) == server.config.shards
    for shard in shards:
        with pytest.raises(StoreError, match="closed"):
            shard.store.log_open("late", "prefix", "text")


def test_failed_start_on_a_taken_metrics_port_closes_the_listener(
    context, taken_port
):
    server = _failed_start(
        context, ServerConfig(shards=1, metrics_port=taken_port)
    )
    assert not _collector_active(server)
    # the main listener bound before the metrics port failed
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((server.host, server.port), timeout=5)
