"""Hardening behaviors of the debug service: request deadlines, the
client circuit breaker, poison-session quarantine, and the FEED path
under duplicated and reordered chunk indices."""

from __future__ import annotations

import socket
import time

import pytest

from repro.errors import ServerError, ServerUnavailableError
from repro.server import (
    CircuitBreaker,
    DebugClient,
    RetryPolicy,
    ServerConfig,
    protocol,
)
from repro.server.loadgen import render_session_chunks
from repro.server.server import DebugServer
from repro.server.shard import QUARANTINE_AFTER, Shard
from tests.server.conftest import start_server


# -- request deadlines -------------------------------------------------

def _late_request(request_type, chunks, handle):
    """A *request_type* payload with a 10 ms deadline: a FEED of chunk
    1 or a SNAPSHOT or CLOSE of session ``late`` (by its *handle*), or
    an OPEN of session ``other``."""
    if request_type == protocol.FEED_CHUNK:
        return protocol.encode_feed_request(
            handle, 1, chunks[1], deadline_ms=10
        )
    if request_type == protocol.OPEN_SESSION:
        return protocol.encode_open_payload("other", deadline_ms=10)
    return protocol.encode_session_request(handle, deadline_ms=10)


def _replies(sock, count):
    """The next *count* reply frames on *sock*."""
    assembler = protocol.FrameAssembler()
    replies = []
    while len(replies) < count:
        data = sock.recv(65536)
        assert data, "server closed the connection"
        replies.extend(assembler.feed(data))
    return replies


def assert_late_request_refused_without_effect(
    context, monkeypatch, request_type
):
    # a FEED and a second request in one write: the FEED, slowed by 50
    # ms, runs within its deadline; the second request's 10 ms
    # deadline, counted from the read that carried both, expires
    # behind it and is refused before its op runs -- the client has
    # given up waiting, and its retransmit relies on the refusal
    # having had no effect
    feed = Shard.feed

    def slow_feed(self, *args):
        time.sleep(0.05)
        return feed(self, *args)

    monkeypatch.setattr(Shard, "feed", slow_feed)
    applied = []
    for name in ("open", "snapshot", "close"):
        def spy(self, sid, *args, _op=getattr(Shard, name), _name=name):
            applied.append((_name, sid))
            return _op(self, sid, *args)

        monkeypatch.setattr(Shard, name, spy)
    chunks = render_session_chunks(context, seed=3, chunk_records=1)
    handle = start_server(context, ServerConfig(shards=1))
    try:
        with DebugClient(handle.host, handle.port) as client:
            client.open_session("late")
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=5
            )
            try:
                # the raw connection attaches to get its own handle
                sock.sendall(protocol.encode_frame(
                    protocol.OPEN_SESSION, 0,
                    protocol.encode_open_payload("late", attach=True),
                ))
                (attached,) = _replies(sock, 1)
                session = protocol.decode_reply(
                    protocol.OPEN_SESSION, attached.frame_type,
                    attached.payload,
                )["handle"]
                applied.clear()
                sock.sendall(
                    protocol.encode_frame(
                        protocol.FEED_CHUNK, 0,
                        protocol.encode_feed_request(
                            session, 0, chunks[0], deadline_ms=60_000,
                        ),
                    )
                    + protocol.encode_frame(
                        request_type, 1,
                        _late_request(request_type, chunks, session),
                    )
                )
                replies = _replies(sock, 2)
            finally:
                sock.close()
            late_ops = list(applied)
            snapshot = client.snapshot("late")
            open_sessions = client.stats()["server"]["open_sessions"]
    finally:
        handle.thread.stop()
    assert [frame.frame_type for frame in replies] == [
        protocol.OK, protocol.RETRY_LATER,
    ]
    body = protocol.decode_json(replies[1].payload)
    assert body["reason"] == "deadline-exceeded"
    assert late_ops == []
    # the FEED applied nothing, the CLOSE closed nothing and the OPEN
    # opened nothing
    assert snapshot.status == "active"
    assert snapshot.next_chunk == 1
    assert open_sessions == 1


def test_expired_deadline_answers_retry_later_without_applying(
    context, monkeypatch
):
    assert_late_request_refused_without_effect(
        context, monkeypatch, protocol.FEED_CHUNK
    )


@pytest.mark.parametrize(
    "request_type",
    [protocol.OPEN_SESSION, protocol.SNAPSHOT, protocol.CLOSE_SESSION],
    ids=["open", "snapshot", "close"],
)
def test_expired_deadline_of_open_snapshot_or_close_has_no_effect(
    context, monkeypatch, request_type
):
    assert_late_request_refused_without_effect(
        context, monkeypatch, request_type
    )


def test_client_propagates_deadline_from_timeout():
    policy = RetryPolicy(timeout_s=2.5)
    client = DebugClient("127.0.0.1", 1, policy=policy)
    assert client._deadline_ms() == 2500
    off = DebugClient(
        "127.0.0.1", 1,
        policy=RetryPolicy(timeout_s=2.5, propagate_deadline=False),
    )
    assert off._deadline_ms() is None


def test_feed_payload_carries_deadline_on_the_wire():
    payload = protocol.encode_feed_request(
        3, 0, b"data", False, deadline_ms=1234
    )
    handle, index, eof, data, deadline = protocol.decode_feed_request(
        payload
    )
    assert (handle, index, eof, data, deadline) == (3, 0, False,
                                                    b"data", 1234)
    # a payload without one decodes to no deadline
    assert protocol.decode_feed_request(
        protocol.encode_feed_request(3, 0, b"data", False)
    )[4] is None


def test_deadlined_requests_work_end_to_end(running):
    # the default policy propagates deadlines on every operation; a
    # healthy server honors them without a hiccup
    with DebugClient(running.host, running.port) as client:
        chunks = render_session_chunks(
            running.context, seed=9, chunk_records=2
        )
        sid = client.open_session("deadline-e2e")
        for i, chunk in enumerate(chunks):
            client.feed(sid, i, chunk, eof=(i == len(chunks) - 1))
        client.snapshot(sid)
        assert client.close_session(sid).status == "closed"


# -- circuit breaker ---------------------------------------------------

class FakeClock:
    """Deterministic clock + sleep for breaker timing tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def breaker(threshold=2, cooldown=0.1, maximum=0.3):
    clock = FakeClock()
    b = CircuitBreaker(
        threshold=threshold,
        cooldown_s=cooldown,
        max_cooldown_s=maximum,
        clock=clock,
        sleep=clock.sleep,
    )
    return b, clock


def test_breaker_opens_after_consecutive_failures():
    b, _clock = breaker()
    assert b.state == "closed"
    b.record_failure()
    assert b.state == "closed"
    b.record_failure()
    assert b.state == "open"
    assert b.opens == 1


def test_breaker_waits_out_cooldown_then_probes():
    b, clock = breaker()
    b.record_failure()
    b.record_failure()
    waited = b.before_attempt()
    assert waited == pytest.approx(0.1)
    assert clock.now == pytest.approx(0.1)
    assert b.state == "half-open"
    b.record_success()
    assert b.state == "closed"
    # the next attempt flows without waiting ...
    assert b.before_attempt() == 0.0
    # ... and a later single failure stays below the threshold
    b.record_failure()
    assert b.state == "closed"


def test_breaker_cooldown_doubles_and_caps():
    b, clock = breaker(threshold=1, cooldown=0.1, maximum=0.3)
    b.record_failure()
    assert b.before_attempt() == pytest.approx(0.1)
    b.record_failure()  # half-open probe failed: cooldown doubled
    assert b.before_attempt() == pytest.approx(0.2)
    b.record_failure()
    assert b.before_attempt() == pytest.approx(0.3)  # capped
    b.record_failure()
    assert b.before_attempt() == pytest.approx(0.3)
    assert b.opens == 4
    # success resets the cooldown to its base
    b.record_success()
    b.record_failure()
    assert b.before_attempt() == pytest.approx(0.1)


def test_breaker_trips_against_a_dead_server():
    policy = RetryPolicy(
        max_attempts=6,
        base_delay_s=0.005,
        max_delay_s=0.02,
        timeout_s=0.2,
        breaker_threshold=3,
        breaker_cooldown_s=0.01,
        breaker_max_cooldown_s=0.04,
    )
    client = DebugClient("127.0.0.1", 1, policy=policy)
    with pytest.raises(ServerUnavailableError):
        client.ping()
    assert client.breaker.opens >= 1
    client.close()


def test_breaker_stats_shape():
    b, _clock = breaker()
    assert set(b.stats()) >= {"state", "opens", "failures"}


# -- poison quarantine -------------------------------------------------

def test_poison_session_is_quarantined_not_retried_forever(running):
    with DebugClient(running.host, running.port) as client:
        chunks = render_session_chunks(
            running.context, seed=2, chunk_records=4
        )
        sid = client.open_session("poison-1")
        for i, chunk in enumerate(chunks):
            client.feed(sid, i, chunk, eof=(i == len(chunks) - 1))
        # feeding past EOF crashes the apply (closed parser): a
        # poisonous payload no retry can fix
        strikes = []
        for _attempt in range(10):
            try:
                # the cursor never advances past a failed apply, so
                # the poisonous retransmit keeps the same index
                client.feed(sid, len(chunks), b"poison\n")
            except ServerError as exc:
                strikes.append(exc)
                if exc.code == "session-quarantined":
                    break
        codes = [exc.code for exc in strikes]
        assert codes == [
            "poison-payload",
            "poison-payload",
            "session-quarantined",
        ]
        # the early strikes are structured: they tell the client how
        # close the session is to the guillotine
        assert strikes[0].extra["failures"] == 1
        assert strikes[0].extra["quarantine_after"] == 3
        # the session is gone; the lane is alive; the id is reusable
        with pytest.raises(ServerError) as err:
            client.snapshot(sid)
        assert err.value.code == "unknown-session"
        stats = client.stats()
        assert stats["counters"]["sessions_quarantined_total"] == 1
        server = running.thread.server
        quarantined = running.thread.call(
            lambda: server.shard_for(sid).manager.stats()["quarantined"]
        )
        assert quarantined == 1
        kinds = [a["kind"] for a in stats["health"]["alerts"]]
        assert "session-quarantined" in kinds
        assert client.open_session(sid) == sid
        assert client.close_session(sid).status == "closed"


def test_poison_strikes_are_per_session_and_below_threshold_survive(
    running,
):
    server = running.thread.server
    assert QUARANTINE_AFTER == 3
    with DebugClient(running.host, running.port) as client:
        chunks = render_session_chunks(
            running.context, seed=6, chunk_records=2
        )
        sid = client.open_session("strike-iso")
        client.feed(sid, 0, chunks[0])
        # two sub-threshold strikes on a *different* session
        sid2 = client.open_session("strike-iso-2")
        client.feed(sid2, 0, b"", eof=True)
        for _attempt in range(2):
            with pytest.raises(ServerError) as err:
                client.feed(sid2, 1, b"poison\n")
            assert err.value.code == "poison-payload"
        assert running.thread.call(
            lambda: server.shard_for(sid2).manager.session(sid2).failures
        ) == 2
        # the struck session is still open (below the threshold) and
        # the clean session is completely unaffected
        assert client.snapshot(sid2).session_id == sid2
        assert running.thread.call(
            lambda: server.shard_for(sid).manager.session(sid).failures
        ) == 0
        for i, chunk in enumerate(chunks[1:], start=1):
            client.feed(sid, i, chunk, eof=(i == len(chunks) - 1))
        assert client.close_session(sid).status == "closed"
        assert client.close_session(sid2).status == "closed"


# -- FEED under duplicated and reordered chunk indices -----------------

def test_feed_duplicate_chunks_are_acked_without_reapply(running):
    with DebugClient(running.host, running.port) as client:
        chunks = render_session_chunks(
            running.context, seed=11, chunk_records=2
        )
        assert len(chunks) >= 2
        sid = client.open_session("dup-1")
        first = client.feed(sid, 0, chunks[0])
        assert not first.duplicate
        # a retransmit of an already-applied index acks idempotently
        replay = client.feed(sid, 0, chunks[0])
        assert replay.duplicate
        assert replay.consumed == 0
        assert replay.observed_length == first.observed_length
        for i, chunk in enumerate(chunks[1:], start=1):
            client.feed(sid, i, chunk, eof=(i == len(chunks) - 1))
        # duplicate *after* EOF still acks instead of striking the
        # poison counter (it is a replay, not a poison payload)
        replay_last = client.feed(
            sid, len(chunks) - 1, chunks[-1], eof=True
        )
        assert replay_last.duplicate
        close = client.close_session(sid)
        assert close.status == "closed"


def test_feed_reordered_chunks_gap_then_converge(running):
    with DebugClient(running.host, running.port) as client:
        chunks = render_session_chunks(
            running.context, seed=11, chunk_records=2
        )
        assert len(chunks) >= 3
        sid = client.open_session("reorder-1")
        # future chunk first: a structured gap error naming the index
        # the server wants, with no partial effect
        with pytest.raises(ServerError) as err:
            client.feed(sid, 1, chunks[1])
        assert err.value.code == "chunk-gap"
        assert err.value.extra["expected"] == 0
        assert client.snapshot(sid).observed_length == 0
        # deliver in order, interleaving stale retransmits
        client.feed(sid, 0, chunks[0])
        client.feed(sid, 1, chunks[1])
        stale = client.feed(sid, 0, chunks[0])
        assert stale.duplicate
        for i, chunk in enumerate(chunks[2:], start=2):
            client.feed(sid, i, chunk, eof=(i == len(chunks) - 1))
        # the converged result equals a clean in-order run
        reference = client.open_session("reorder-ref")
        for i, chunk in enumerate(chunks):
            client.feed(reference, i, chunk,
                        eof=(i == len(chunks) - 1))
        got = client.close_session(sid)
        want = client.close_session(reference)
        assert got.records == want.records
        assert got.result == want.result


def test_health_collector_reports_ok_on_a_clean_server(running):
    with DebugClient(running.host, running.port) as client:
        health = client.stats()["health"]
        assert health["status"] == "ok"
        assert health["degraded_shards"] == []
        assert health["alerts"] == []


def test_alerts_keep_the_newest_64_in_order(context):
    server = DebugServer(context)
    for number in range(100):
        server._alert("test", number=number)
    numbers = [alert["number"] for alert in server.health()["alerts"]]
    assert numbers == list(range(36, 100))
