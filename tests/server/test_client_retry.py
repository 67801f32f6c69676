"""Client retry behavior: deterministic backoff, convergence under
backpressure, and the restart soak -- the server is killed and
restarted mid-stream and a retrying client recovers with zero data
loss (the final snapshot equals the batch answer)."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.errors import ServerError, ServerUnavailableError
from repro.selection.localization import localize_trace
from repro.server import (
    DebugClient,
    RetryPolicy,
    ServerConfig,
    SessionFeed,
    protocol,
)
from repro.server.client import MAX_REOPENS
from repro.server.loadgen import render_session_chunks
from repro.stream.service import synthetic_session_records
from tests.server.conftest import start_server


def test_open_token_is_seeded_and_kept_across_retries():
    # every attempt of one OPEN call carries the same token, drawn from
    # the client's rng: a seeded client sends the same bytes each run
    def attempts(seed):
        client = DebugClient(
            "127.0.0.1", 9,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            rng=random.Random(seed),
        )
        sent = []

        def refused(frame_type, payload):
            sent.append(payload)
            raise ConnectionRefusedError("no server")

        client._roundtrip = refused
        with pytest.raises(ServerUnavailableError):
            client.open_session("s")
        return sent

    sent = attempts(5)
    assert len(sent) == 3 and len(set(sent)) == 1
    token = protocol.decode_open_payload(sent[0]).token
    assert len(token) == 8 and int(token, 16) < 2**32
    assert attempts(5) == sent
    assert attempts(6) != sent


def test_backoff_is_exponential_capped_and_jittered():
    policy = RetryPolicy(
        base_delay_s=0.1, max_delay_s=0.5, jitter=0.5
    )
    rng = random.Random(0)
    delays = [policy.delay(attempt, rng) for attempt in range(6)]
    # base doubles each attempt until the cap
    assert 0.1 <= delays[0] <= 0.15
    assert 0.2 <= delays[1] <= 0.30
    assert all(0.5 <= d <= 0.75 for d in delays[3:])
    # same seed -> same schedule (deterministic for tests)
    replay_rng = random.Random(0)
    assert delays == [
        policy.delay(attempt, replay_rng) for attempt in range(6)
    ]


def test_zero_jitter_is_deterministic():
    policy = RetryPolicy(base_delay_s=0.05, max_delay_s=1.0, jitter=0.0)
    rng = random.Random(123)
    assert policy.delay(0, rng) == pytest.approx(0.05)
    assert policy.delay(2, rng) == pytest.approx(0.20)


def test_connection_refused_exhausts_into_unavailable():
    # nothing listens on this port: every attempt fails to connect
    client = DebugClient(
        "127.0.0.1",
        1,  # reserved port, connect() always refused
        policy=RetryPolicy(max_attempts=2, base_delay_s=0.01),
    )
    with pytest.raises(ServerUnavailableError, match="2 attempt"):
        client.ping()
    assert client.retries == 1


def test_retry_converges_when_capacity_frees(context):
    handle = start_server(
        context, ServerConfig(shards=1, max_sessions=1)
    )
    try:
        holder = DebugClient(handle.host, handle.port)
        holder.open_session("hog")

        def release():
            time.sleep(0.15)
            holder.close_session("hog")

        releaser = threading.Thread(target=release)
        releaser.start()
        patient = DebugClient(
            handle.host,
            handle.port,
            policy=RetryPolicy(max_attempts=10, base_delay_s=0.05),
            rng=random.Random(0),
        )
        # blocked at first, admitted once the hog closes
        assert patient.open_session("patient") == "patient"
        assert patient.retries >= 1
        releaser.join()
        patient.close_session("patient")
        patient.close()
        holder.close()
    finally:
        handle.thread.stop()


# ----------------------------------------------------------------------
def test_restart_soak_recovers_with_zero_data_loss(context):
    """Kill the server mid-stream, restart on the same port; the
    SessionFeed replays its history and the final snapshot equals the
    batch localization of the full trace."""
    records = synthetic_session_records(
        context.interleaved, context.traced, seed=21
    )
    chunks = render_session_chunks(context, seed=21, chunk_records=1)
    assert len(chunks) >= 4
    batch = localize_trace(
        context.interleaved,
        context.traced,
        tuple(r.message for r in records),
        mode=context.mode,
    )

    first = start_server(context, ServerConfig(shards=2))
    port = first.port
    client = DebugClient(
        first.host,
        port,
        policy=RetryPolicy(max_attempts=20, base_delay_s=0.05),
        rng=random.Random(7),
    )
    feed = SessionFeed(client, session_id="soak")
    half = len(chunks) // 2
    for chunk in chunks[:half]:
        feed.feed(chunk)

    # hard-kill: connections reset, all session state lost
    first.thread.stop(abort=True)
    second = start_server(
        context, ServerConfig(shards=2, port=port)
    )
    try:
        for i, chunk in enumerate(chunks[half:]):
            feed.feed(chunk, eof=(half + i == len(chunks) - 1))
        snap = feed.snapshot()
        assert feed.recoveries >= 1
        assert client.retries >= 1
        assert snap.observed_length == len(records)
        assert (
            snap.result.consistent_paths,
            snap.result.total_paths,
        ) == (batch.consistent_paths, batch.total_paths)
        close = feed.close()
        assert close.records == len(records)
        client.close()
    finally:
        second.thread.stop()


def test_eviction_triggers_transparent_replay(context):
    """An idle-evicted session is transparently reopened and replayed
    by the feed -- same guarantee as the restart, smaller hammer."""
    handle = start_server(
        context,
        ServerConfig(shards=1, idle_timeout_s=0.05, idle_sweep_s=0.02),
    )
    try:
        chunks = render_session_chunks(context, seed=22, chunk_records=2)
        client = DebugClient(handle.host, handle.port)
        feed = SessionFeed(client, session_id="evictee")
        feed.feed(chunks[0])
        # outlive the idle timeout so the sweeper retires the session
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if handle.thread.call(
                lambda: handle.server.shard_for("evictee").manager.stats()
            )["evicted"]:
                break
            time.sleep(0.02)
        reply = feed.feed(chunks[1])
        assert feed.recoveries == 1
        # replay restored chunk 0's records before applying chunk 1
        snapshot = feed.snapshot()
        assert snapshot.observed_length >= reply.consumed
        expected = sum(
            1
            for r in render_session_chunks(
                context, seed=22, chunk_records=2
            )[:2]
            for line in r.decode().splitlines()
            if line and not line.startswith("#")
        )
        assert snapshot.observed_length == expected
        feed.close()
        client.close()
    finally:
        handle.thread.stop()


def _closed_after_reopens(client, closer, times):
    """Make the first *times* reopens of *client* lose their session
    again at once: right after each reopen's OPEN, *closer* closes it,
    as a CLOSE the network delivered late would."""
    reopen = client.open_session_info
    left = [times]

    def open_then_lose(**kwargs):
        info = reopen(**kwargs)
        if left[0]:
            left[0] -= 1
            closer.close_session(str(info["session_id"]))
        return info

    client.open_session_info = open_then_lose


def test_a_session_lost_again_while_it_replays_is_reopened_again(context):
    records = synthetic_session_records(
        context.interleaved, context.traced, seed=23
    )
    chunks = render_session_chunks(context, seed=23, chunk_records=1)
    batch = localize_trace(
        context.interleaved,
        context.traced,
        tuple(r.message for r in records),
        mode=context.mode,
    )
    handle = start_server(context, ServerConfig(shards=1))
    try:
        with DebugClient(handle.host, handle.port) as client, DebugClient(
            handle.host, handle.port
        ) as closer:
            feed = SessionFeed(client, session_id="twice")
            feed.feed(chunks[0])
            closer.close_session("twice")
            _closed_after_reopens(client, closer, times=1)
            # the FEED finds the session gone; the reopened one is gone
            # again before its replay, so the feed reopens once more
            feed.feed(chunks[1])
            assert feed.recoveries == 2
            last = len(chunks) - 1
            for index in range(2, len(chunks)):
                feed.feed(chunks[index], eof=index == last)
            close = feed.close()
            assert close.records == len(records)
            assert (
                close.result.consistent_paths, close.result.total_paths
            ) == (batch.consistent_paths, batch.total_paths)

            # a session the server keeps losing: the feed gives up
            # after MAX_REOPENS reopens instead of looping
            lost = SessionFeed(client, session_id="always-lost")
            closer.close_session("always-lost")
            _closed_after_reopens(client, closer, times=MAX_REOPENS)
            with pytest.raises(ServerError, match="unknown-session"):
                lost.feed(chunks[0])
            assert lost.recoveries == MAX_REOPENS
    finally:
        handle.thread.stop()
