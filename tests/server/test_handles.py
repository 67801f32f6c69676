"""Session handles (protocol version 5): after OPEN, a FEED, SNAPSHOT
or CLOSE names the incarnation its OPEN reached, by a handle scoped to
the connection.

A late or duplicated request for an earlier incarnation has no effect
and is answered ``unknown-session``; a client attaches again after a
reconnect, with the token of the OPEN that answered; and a
connection's handle table stays within ``max_sessions`` handles.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import ServerError
from repro.server import DebugClient, RetryPolicy, ServerConfig, protocol
from repro.server.loadgen import render_session_chunks
from repro.server.server import SessionHandles
from tests.server.conftest import start_server


class Raw:
    """One raw connection: frames out, decoded replies back."""

    def __init__(self, running) -> None:
        self.sock = socket.create_connection(
            (running.host, running.port), timeout=5
        )
        self.assembler = protocol.FrameAssembler()
        self.seq = 0

    def frame(self, request_type, payload):
        self.seq += 1
        return protocol.encode_frame(request_type, self.seq, payload)

    def send(self, request_type, wire):
        """Send the frame bytes *wire*; returns the reply's type and
        body."""
        self.sock.sendall(wire)
        frames = []
        while not frames:
            data = self.sock.recv(65536)
            assert data, "server closed the connection"
            frames = self.assembler.feed(data)
        (reply,) = frames
        return reply.frame_type, protocol.decode_reply(
            request_type, reply.frame_type, reply.payload
        )

    def ok(self, request_type, payload):
        frame_type, body = self.send(
            request_type, self.frame(request_type, payload)
        )
        assert frame_type == protocol.OK, body
        return body


def assert_unknown_session(reply):
    frame_type, body = reply
    assert frame_type == protocol.ERROR, body
    assert body["error"] == "unknown-session"


def test_a_late_close_or_feed_never_reaches_the_reopened_session(running):
    chunks = render_session_chunks(running.context, seed=41, chunk_records=2)
    raw = Raw(running)
    try:
        first = raw.ok(
            protocol.OPEN_SESSION, protocol.encode_open_payload("s")
        )["handle"]
        stale_feed = raw.frame(
            protocol.FEED_CHUNK,
            protocol.encode_feed_request(first, 0, chunks[0]),
        )
        close = raw.frame(
            protocol.CLOSE_SESSION, protocol.encode_session_request(first)
        )
        frame_type, closed = raw.send(protocol.CLOSE_SESSION, close)
        assert (frame_type, closed["status"]) == (protocol.OK, "closed")
        second = raw.ok(
            protocol.OPEN_SESSION, protocol.encode_open_payload("s")
        )["handle"]
        assert second != first
        # the first CLOSE's bytes again, and a FEED of the first
        # incarnation: neither touches the second
        assert_unknown_session(raw.send(protocol.CLOSE_SESSION, close))
        assert_unknown_session(raw.send(protocol.FEED_CHUNK, stale_feed))
        snapshot = raw.ok(
            protocol.SNAPSHOT, protocol.encode_session_request(second)
        )
        assert snapshot["status"] == "active"
        assert snapshot["next_chunk"] == 0
    finally:
        raw.sock.close()


def test_a_stale_handle_never_reaches_another_clients_session(running):
    chunks = render_session_chunks(running.context, seed=42, chunk_records=2)
    with DebugClient(running.host, running.port) as first, DebugClient(
        running.host, running.port
    ) as second:
        first.open_session("s")
        first.feed("s", 0, chunks[0])
        # another client closes the session and opens its own under
        # the id; the first client's handle names the closed one
        second.close_session("s")
        second.open_session("s")
        with pytest.raises(ServerError) as excinfo:
            first.feed("s", 1, chunks[1])
        assert excinfo.value.code == "unknown-session"
        assert second.snapshot("s").next_chunk == 0


def recording(client):
    """Record ``(frame type, payload)`` of every request *client*
    sends."""
    sent = []
    roundtrip = client._roundtrip

    def recorded(frame_type, payload):
        sent.append((frame_type, payload))
        return roundtrip(frame_type, payload)

    client._roundtrip = recorded
    return sent


def test_a_client_attaches_again_after_a_reconnect(running):
    chunks = render_session_chunks(running.context, seed=43, chunk_records=2)
    with DebugClient(running.host, running.port) as client:
        sent = recording(client)
        client.open_session("s")
        token = protocol.decode_open_payload(sent[0][1]).token
        client.feed("s", 0, chunks[0])
        client.close()  # mid-session: the connection's handles go
        reply = client.feed("s", 1, chunks[1])
        assert reply.next_chunk == 2
        attach = protocol.decode_open_payload(sent[2][1])
        assert (attach.session_id, attach.token, attach.attach) == (
            "s", token, True,
        )
        assert [frame_type for frame_type, _ in sent] == [
            protocol.OPEN_SESSION, protocol.FEED_CHUNK,
            protocol.OPEN_SESSION, protocol.FEED_CHUNK,
        ]
        assert client.close_session("s").status == "closed"


def test_an_attach_to_a_session_the_server_lost_changes_nothing(running):
    with DebugClient(running.host, running.port) as client, DebugClient(
        running.host, running.port
    ) as other:
        client.open_session("gone")
        other.close_session("gone")
        client.close()
        live = client.stats()["server"]["open_sessions"]
        with pytest.raises(ServerError) as excinfo:
            client.snapshot("gone")
        assert excinfo.value.code == "unknown-session"
        assert client.stats()["server"]["open_sessions"] == live == 0


def test_a_connection_keeps_at_most_max_sessions_handles():
    handles = SessionHandles(limit=2)
    shard = object()
    assert [handles.bind(shard, sid, 1) for sid in "abc"] == [0, 1, 2]
    assert len(handles) == 2
    assert handles.get(0) is None  # the oldest went
    assert handles.get(2) == (shard, "c", 1)
    # the incarnation a handle names gets that handle back; a later
    # incarnation of its id replaces it, and no handle is reused
    assert handles.bind(shard, "c", 1) == 2
    assert handles.bind(shard, "c", 2) == 3
    assert handles.get(2) is None
    assert len(handles) == 2
    handles.drop(3)
    assert len(handles) == 1
    assert handles.bind(shard, "a", 1) == 4


def durable(context, tmp_path, max_sessions):
    """A one-shard durable server whose idle sweep never runs."""
    return start_server(context, ServerConfig(
        shards=1, max_sessions=max_sessions, data_dir=str(tmp_path),
        fsync="off", idle_timeout_s=60.0, idle_sweep_s=3600.0,
    ))


def spill(running, sid):
    """Age *sid* past its idle timeout and let its shard spill it."""

    def on_loop():
        shard = running.server.shard_for(sid)
        shard.manager.session(sid).last_active -= 120.0
        shard.manager.evict_idle()
        return shard.spilled(sid)

    assert running.thread.call(on_loop)


def test_a_handle_the_table_dropped_is_attached_again(context, tmp_path):
    chunks = render_session_chunks(context, seed=44, chunk_records=2)
    running = durable(context, tmp_path, max_sessions=2)
    try:
        with DebugClient(running.host, running.port) as client:
            sent = recording(client)
            client.open_session("a")
            client.feed("a", 0, chunks[0])
            spill(running, "a")
            # two more sessions on the connection: binding the third
            # handle drops a's, the oldest
            client.open_session("b")
            client.open_session("c")
            client.close_session("c")
            del sent[:]
            snapshot = client.snapshot("a")
            assert snapshot.next_chunk == 1
            token = client._tokens["a"]
            kinds = [
                (frame_type, protocol.decode_open_payload(payload).token)
                if frame_type == protocol.OPEN_SESSION else (frame_type,)
                for frame_type, payload in sent
            ]
            # the dropped handle is answered unknown-session; the
            # client attaches with a's token and asks again
            assert kinds == [
                (protocol.SNAPSHOT,), (protocol.OPEN_SESSION, token),
                (protocol.SNAPSHOT,),
            ]
    finally:
        running.thread.stop()


def test_a_session_feed_reopens_a_spilled_session_with_its_token(
    context, tmp_path
):
    from repro.server import SessionFeed

    chunks = render_session_chunks(context, seed=45, chunk_records=2)
    running = durable(context, tmp_path, max_sessions=64)
    try:
        with DebugClient(running.host, running.port) as client:
            sent = recording(client)
            feed = SessionFeed(client, session_id="s")
            token = protocol.decode_open_payload(sent[0][1]).token
            feed.feed(chunks[0])
            feed.feed(chunks[1])
            spill(running, "s")
            del sent[:]
            # the feed's recovery path: its reopen carries its first
            # token, so the spilled session resumes at chunk 2 and
            # nothing is replayed
            feed._reopen_and_replay()
            assert [
                protocol.decode_open_payload(payload).token
                for _, payload in sent
            ] == [token]
            assert feed.recoveries == 1
            last = len(chunks) - 1
            for index in range(2, len(chunks)):
                assert feed.feed(chunks[index], eof=index == last)
            closed = feed.close()
            assert closed.status == "closed"
            assert closed.next_chunk == len(chunks)
    finally:
        running.thread.stop()


def test_a_fresh_client_closes_a_spilled_session_at_the_cap(
    context, tmp_path
):
    # an ATTACH takes no slot: the CLOSE after it revives and retires
    # the spilled session in one op, as an id-named CLOSE did
    running = durable(context, tmp_path, max_sessions=1)
    try:
        with DebugClient(running.host, running.port) as first:
            first.open_session("a")
            spill(running, "a")
            first.open_session("b")  # the table is full
        with DebugClient(
            running.host, running.port, policy=RetryPolicy(max_attempts=1)
        ) as fresh:
            assert fresh.close_session("a").status == "closed"
            assert fresh.stats()["server"]["open_sessions"] == 1
            assert fresh.stats()["counters"].get("retry_later_total", 0) == 0
    finally:
        running.thread.stop()
