"""The shard core on its own: no event loop, no socket.

A :class:`~repro.server.shard.Shard` is driven op by op, abandoned
without a shutdown (a crash: every WAL append already reached the OS),
and a second core is recovered from the same data directory.  Replies
are compared as the exact ``(frame type, payload)`` the server would
send.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.server import ServerConfig, protocol
from repro.server.loadgen import render_session_chunks
from repro.server.shard import Shard, ShardRecovery


@pytest.fixture
def recovered(context, tmp_path):
    """Recovers a durable core on the test's data directory; the
    :class:`ShardRecovery` of each core is kept in ``recover.reports``.
    Stores are closed only at teardown: until then an abandoned core is
    a crashed one, whose writer nobody sealed."""
    reports: Dict[Shard, ShardRecovery] = {}

    def recover(**config) -> Shard:
        shard = Shard(
            0, context,
            ServerConfig(data_dir=str(tmp_path), fsync="off", **config),
        )
        reports[shard] = shard.recover()
        return shard

    recover.reports = reports
    yield recover
    for shard in reports:
        shard.store.close()


def body(reply, request_type=protocol.OPEN_SESSION):
    """``(frame type, decoded payload)`` of a reply to *request_type*."""
    frame_type, payload = reply
    return frame_type, protocol.decode_reply(
        request_type, frame_type, payload
    )


def ok(reply, request_type=protocol.OPEN_SESSION):
    frame_type, decoded = body(reply, request_type)
    assert frame_type == protocol.OK, decoded
    return decoded


def feed_all(shard, sid, chunks):
    last = len(chunks) - 1
    for index, chunk in enumerate(chunks):
        reply = shard.feed(sid, index, chunk, eof=index == last)
        ok(reply, protocol.FEED_CHUNK)


def test_recovered_core_answers_as_the_uninterrupted_one(
    context, recovered
):
    chunks = render_session_chunks(context, seed=31, chunk_records=2)
    assert len(chunks) >= 3
    # the uninterrupted run, in memory
    reference = Shard(0, context, ServerConfig())
    ok(reference.open("s", token="00c0ffee"))
    feed_all(reference, "s", chunks)
    want_snapshot = reference.snapshot("s")
    want_close = reference.close("s")

    first = recovered(snapshot_every=2)  # a cadence snapshot mid-stream
    ok(first.open("s", token="00c0ffee"))
    feed_all(first, "s", chunks)
    assert first.snapshot("s") == want_snapshot
    # crash: first is abandoned without a shutdown
    second = recovered(snapshot_every=2)
    assert second.snapshot("s") == want_snapshot
    assert second.close("s") == want_close


# -- a retried OPEN whose first attempt worked -------------------------

def assert_resumed(reply, next_chunk=0):
    decoded = ok(reply)
    assert decoded["resumed"] is True
    assert decoded["next_chunk"] == next_chunk


def test_live_retry_of_an_applied_open_resumes(context, recovered):
    shard = recovered()
    chunks = render_session_chunks(context, seed=32, chunk_records=2)
    ok(shard.open("s", token="1234abcd"))  # applied and logged; reply lost
    assert_resumed(shard.open("s", token="1234abcd"))
    ok(shard.feed("s", 0, chunks[0]), protocol.FEED_CHUNK)
    assert_resumed(shard.open("s", token="1234abcd"), next_chunk=1)
    # another client's OPEN (other token, or none) is still refused
    for token in ("feedf00d", None):
        frame_type, decoded = body(shard.open("s", token=token))
        assert frame_type == protocol.ERROR
        assert decoded["error"] == "session-exists"


def test_retry_after_recovery_resumes(recovered):
    first = recovered()
    ok(first.open("s", token="1234abcd"))  # reply lost to a crash
    second = recovered()
    assert_resumed(second.open("s", token="1234abcd"))


def test_retry_at_a_full_table_resumes(recovered):
    shard = recovered(max_sessions=1)
    ok(shard.open("s", token="1234abcd"))
    assert_resumed(shard.open("s", token="1234abcd"))
    frame_type, decoded = body(shard.open("t", token="5678abcd"))
    assert frame_type == protocol.RETRY_LATER
    assert decoded["reason"] == "session-table-full"


def test_entries_without_a_token_still_restore(recovered):
    first = recovered()
    ok(first.open("snap"))
    first.checkpoint()
    ok(first.open("tail"))
    second = recovered()
    assert sorted(second.manager.session_ids()) == ["snap", "tail"]
    for sid in ("snap", "tail"):
        assert second.manager.session(sid).token is None
        assert body(second.open(sid))[1]["error"] == "session-exists"


def test_a_second_open_of_an_idle_id_is_refused(context, recovered):
    """The id check comes before the eviction sweep: evicting the idle
    session first would spill it and admit a second ``s``, live beside
    the spilled one, which the next recovery refuses."""
    chunks = render_session_chunks(context, seed=34, chunk_records=2)
    assert len(chunks) >= 3
    first = recovered(idle_timeout_s=0.2)
    ok(first.open("s", token="aaaa0000"))
    for index in range(3):
        ok(first.feed("s", index, chunks[index]), protocol.FEED_CHUNK)
    first.manager.session("s").last_active -= 1
    frame_type, decoded = body(first.open("s", token="bbbb0000"))
    assert frame_type == protocol.ERROR
    assert decoded["error"] == "session-exists"
    assert not first.spilled("s")
    second = recovered(idle_timeout_s=0.2)
    assert recovered.reports[second].sessions == 1
    assert second.snapshot("s") == first.snapshot("s")


# -- recovery at a lower cap -------------------------------------------

def test_recovery_keeps_every_durable_session_past_a_lower_cap(
    context, recovered
):
    chunks = render_session_chunks(context, seed=33, chunk_records=2)
    first = recovered(max_sessions=4)
    for sid in ("s0", "s1"):
        ok(first.open(sid))
        ok(first.feed(sid, 0, chunks[0]), protocol.FEED_CHUNK)
    first.checkpoint()  # s0 and s1 are snapshot entries
    for sid in ("s2", "s3"):  # s2 and s3 are WAL-tail OPENs and FEEDs
        ok(first.open(sid))
        ok(first.feed(sid, 0, chunks[0]), protocol.FEED_CHUNK)
    want = {sid: first.snapshot(sid) for sid in ("s0", "s1", "s2", "s3")}

    second = recovered(max_sessions=2)
    assert len(second.manager) == recovered.reports[second].sessions == 4
    for sid, snapshot in want.items():
        assert second.snapshot(sid) == snapshot
    # the table is over its cap: new sessions wait until it drains
    frame_type, _ = second.open("late")
    assert frame_type == protocol.RETRY_LATER
    for sid in ("s0", "s1", "s2"):
        ok(second.close(sid), protocol.CLOSE_SESSION)
    ok(second.open("late"))
    # the next snapshot still holds the session nobody closed
    second.checkpoint()
    third = recovered(max_sessions=2)
    assert sorted(third.manager.session_ids()) == ["late", "s3"]
    assert third.snapshot("s3") == want["s3"]


def test_memory_only_core_retires_sessions_on_shutdown(context):
    shard = Shard(0, context, ServerConfig())
    ok(shard.open("s"))
    shard.shutdown()
    assert shard.manager.session_ids() == ()


def test_recovery_reports_the_tokens_of_generated_ids(context, tmp_path):
    """Live and spilled sessions with a generated id and an open token
    come back as ``(token, id)`` pairs: the server sends a retry of
    their OPEN to the same id again."""
    config = ServerConfig(data_dir=str(tmp_path), fsync="off")
    first = Shard(0, context, config)
    first.recover()
    try:
        ok(first.open("g000003", token="0000abcd"))
        ok(first.open("g000004", token="0000beef"))
        ok(first.open("g000005"))  # no token: nothing to find again
        ok(first.open("named", token="feedf00d"))  # the client's own id
        # g000004 idles out and is spilled to the store
        first.manager.session("g000004").last_active -= (
            2 * config.idle_timeout_s
        )
        assert first.manager.evict_idle() == ("g000004",)
        first.checkpoint()
    finally:
        first.store.close()
    second = Shard(0, context, config)
    try:
        report = second.recover()
    finally:
        second.store.close()
    assert report.generated == (
        ("0000abcd", "g000003"), ("0000beef", "g000004"),
    )
    assert report.session_counter == 5
