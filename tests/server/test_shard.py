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


def test_a_spilled_session_resumes_only_with_its_own_token(recovered):
    """Whether a second client may take a session over must not depend
    on the idle sweep: spilled or live, an OPEN with another token (or
    none) is refused and leaves the session where it was."""
    shard = recovered(idle_timeout_s=0.2)
    ok(shard.open("s", token="aaaa0000"))
    shard.manager.session("s").last_active -= 1
    assert shard.manager.evict_idle() == ("s",)
    for token in ("bbbb0000", None):
        frame_type, decoded = body(shard.open("s", token=token))
        assert frame_type == protocol.ERROR
        assert decoded["error"] == "session-exists"
        assert shard.spilled("s")
        assert "s" not in shard.manager
    assert_resumed(shard.open("s", token="aaaa0000"))
    assert shard.manager.session("s").token == "aaaa0000"


# -- incarnations and ATTACH -------------------------------------------

def test_a_late_close_never_closes_a_later_incarnation(context):
    shard = Shard(0, context, ServerConfig())
    first = ok(shard.open("s", token="aaaa0000"))["handle"]
    ok(shard.close("s", first), protocol.CLOSE_SESSION)
    second = ok(shard.open("s", token="aaaa0000"))["handle"]
    assert second != first
    chunk = render_session_chunks(context, seed=35, chunk_records=2)[0]
    # a late copy of the first CLOSE, and a stale FEED, of the first
    # incarnation: no effect
    for stale in (
        shard.close("s", first), shard.feed("s", 0, chunk, False, first),
        shard.snapshot("s", first),
    ):
        frame_type, payload = stale
        assert frame_type == protocol.ERROR
        assert protocol.decode_json(payload)["error"] == "unknown-session"
    assert shard.manager.session("s").next_chunk == 0
    snap = ok(shard.snapshot("s", second), protocol.SNAPSHOT)
    assert snap["status"] == "active"


def test_a_spill_and_a_revival_keep_the_incarnation(context, recovered):
    shard = recovered(idle_timeout_s=0.2)
    handle = ok(shard.open("s", token="aaaa0000"))["handle"]
    shard.manager.session("s").last_active -= 1
    shard.manager.evict_idle()
    assert shard.spilled("s", handle)
    assert shard.holds("s", handle)
    # an ATTACH reaches the spilled incarnation and leaves it spilled:
    # it adds no live session, and the next request revives it
    assert not shard.adds_session("s", None, attach=True)
    assert_resumed(shard.open("s", attach=True))
    assert ok(shard.open("s", attach=True))["handle"] == handle
    assert shard.spilled("s", handle)
    chunk = render_session_chunks(context, seed=36, chunk_records=2)[0]
    fed = ok(shard.feed("s", 0, chunk, False, handle), protocol.FEED_CHUNK)
    assert fed["next_chunk"] == 1
    assert not shard.spilled("s")


def test_an_attach_creates_nothing(context, recovered):
    shard = recovered()
    frame_type, decoded = body(shard.open("s", attach=True))
    assert frame_type == protocol.ERROR
    assert decoded["error"] == "unknown-session"
    assert len(shard.manager) == 0
    assert shard.store.stats()["wal_appends"] == 0
    ok(shard.open("s", token="aaaa0000"))
    # with a token, only the session that token opened; without, any
    foreign = body(shard.open("s", token="bbbb0000", attach=True))[1]
    assert foreign["error"] == "unknown-session"
    for token in ("aaaa0000", None):
        assert_resumed(shard.open("s", token=token, attach=True))
    assert len(shard.manager) == 1


# -- a directory that holds one id twice -------------------------------
#
# Before a second OPEN of an idle id was refused, it spilled the idle
# session and opened another under its id.  Recovery keeps the later
# incarnation of such an id.

def later_incarnation(context, chunk):
    """A memory-only core holding the later ``s``: token ``bbbb0000``,
    fed *chunk* as chunk 0."""
    shard = Shard(0, context, ServerConfig())
    ok(shard.open("s", token="bbbb0000"))
    ok(shard.feed("s", 0, chunk), protocol.FEED_CHUNK)
    return shard


def first_chunks(context):
    """Two chunk 0s, of three records and of one, whose sessions
    localize differently."""
    older, newer = (
        render_session_chunks(context, seed=35, chunk_records=size)[0]
        for size in (4, 2)
    )
    assert later_incarnation(context, older).snapshot("s") != (
        later_incarnation(context, newer).snapshot("s")
    )
    return older, newer


def test_a_second_wal_open_of_an_id_retires_the_first(context, recovered):
    older, newer = first_chunks(context)
    first = recovered()
    # the WAL tail written by a server that let a second OPEN in
    first.store.log_open("s", "prefix", "text", token="aaaa0000")
    first.store.log_feed("s", 0, older, eof=False)
    first.store.log_open("s", "prefix", "text", token="bbbb0000")
    first.store.log_feed("s", 0, newer, eof=False)
    second = recovered()
    assert recovered.reports[second].sessions == 1
    assert second.manager.session_ids() == ("s",)
    assert not second.spilled("s")
    assert second.manager.session("s").token == "bbbb0000"
    assert second.snapshot("s") == (
        later_incarnation(context, newer).snapshot("s")
    )


def test_a_live_snapshot_entry_drops_the_spilled_entry_of_its_id(
    context, recovered
):
    older, newer = first_chunks(context)
    earlier = Shard(0, context, ServerConfig())
    ok(earlier.open("s", token="aaaa0000"))
    ok(earlier.feed("s", 0, older), protocol.FEED_CHUNK)
    first = recovered()
    ok(first.open("s", token="bbbb0000"))
    ok(first.feed("s", 0, newer), protocol.FEED_CHUNK)
    # the earlier incarnation, spilled while the later one is live
    first.store.spill(earlier.manager.export_session("s"))
    first.checkpoint()
    second = recovered()
    assert recovered.reports[second].sessions == 1
    assert second.manager.session_ids() == ("s",)
    assert not second.spilled("s")
    assert second.manager.session("s").token == "bbbb0000"
    assert second.snapshot("s") == (
        later_incarnation(context, newer).snapshot("s")
    )


def test_memory_only_core_retires_sessions_on_shutdown(context):
    shard = Shard(0, context, ServerConfig())
    ok(shard.open("s"))
    shard.shutdown()
    assert shard.manager.session_ids() == ()
