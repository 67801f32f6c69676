"""Crash-recovery tests at the server level.

The durability contract under test: after a hard kill (in-process
abort or a SIGKILL'd subprocess) and a restart on the same data
directory, every open session's snapshot is **bit-identical** to the
batch localization of everything that was acknowledged -- the same
answer an uninterrupted server would give.  Plus: eviction spill +
transparent revival, incremental client resume after a lost WAL tail,
and the identity guards (fingerprint, shard count).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.chaos.disk import DiskFaultInjector, installed
from repro.chaos.faults import FaultDecider, FaultPlan, FaultSpec
from repro.errors import ServerError, StoreError
from repro.selection.localization import localize_trace
from repro.server import (
    DebugClient,
    ServeContext,
    ServerConfig,
    SessionFeed,
)
from repro.server.loadgen import render_session_chunks
from repro.store import wal
from repro.stream.service import synthetic_session_records
from tests.store.conftest import session_chunks, start_server


def durable_config(data_dir, **kwargs) -> ServerConfig:
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("fsync", "off")  # the OS survives our "crashes"
    return ServerConfig(data_dir=str(data_dir), **kwargs)


def batch_answer(context: ServeContext, seed: int):
    records = synthetic_session_records(
        context.interleaved, context.traced, seed=seed
    )
    result = localize_trace(
        context.interleaved,
        context.traced,
        tuple(r.message for r in records),
        mode=context.mode,
    )
    return len(records), result


def feed_session(
    client, context, sid, seed, upto=None, eof=False, transport="text"
):
    """Open *sid* and feed its chunks (``upto`` caps how many);
    returns the chunk list."""
    chunks = session_chunks(context, seed, transport)
    client.open_session(sid, transport=transport)
    count = len(chunks) if upto is None else min(upto, len(chunks))
    for index in range(count):
        client.feed(
            sid, index, chunks[index],
            eof=eof and index == len(chunks) - 1,
        )
    return chunks


def assert_matches_batch(client, context, sid, seed):
    snap = client.snapshot(sid)
    assert_batch_answer(snap.observed_length, snap.result, context, seed)


def assert_batch_answer(records, result, context, seed):
    """*records* and *result* answer for the whole of session *seed*,
    as the batch localizer does."""
    expected_records, expected = batch_answer(context, seed)
    assert records == expected_records
    assert (
        result.consistent_paths, result.total_paths
    ) == (expected.consistent_paths, expected.total_paths)


def degrading_gate() -> DiskFaultInjector:
    """A disk gate that fails every WAL append: the shard that writes
    under it degrades to memory-only."""
    return DiskFaultInjector(
        FaultDecider(0, FaultPlan(specs=(FaultSpec("disk", "enospc", 1.0),)))
    )


# ----------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.mark.parametrize(
        "sessions, transport",
        [(3, "text"), (64, "text"), (3, "ctrace")],
        ids=["3", "64", "3-ctrace"],
    )
    def test_recovered_sessions_are_bit_identical(
        self, context, tmp_path, sessions, transport
    ):
        """Kill mid-load; after restart every session is live again
        and finishing it lands on the exact batch answer.  The ctrace
        case checkpoints every two feeds, so the snapshot it recovers
        from holds decoders stopped mid-bitstream."""
        snapshot_every = (
            2 if transport == "ctrace" else ServerConfig.snapshot_every
        )
        config = durable_config(tmp_path, snapshot_every=snapshot_every)
        first = start_server(context, config)
        port = first.port
        seeds = {f"cr-{i:02d}": 31 + i for i in range(sessions)}
        chunk_lists = {}
        with DebugClient(first.host, port) as client:
            for sid, seed in seeds.items():
                chunk_lists[sid] = feed_session(
                    client, context, sid, seed,
                    upto=len(session_chunks(context, seed, transport)) // 2,
                    transport=transport,
                )
        first.thread.stop(abort=True)  # crash

        second = start_server(
            context,
            durable_config(
                tmp_path, port=port, snapshot_every=snapshot_every
            ),
        )
        try:
            recovery = second.thread.call(lambda: second.server.recovery_info)
            assert recovery["sessions"] == len(seeds)
            assert recovery["replayed_records"] > 0
            with DebugClient(second.host, port) as client:
                for sid, seed in seeds.items():
                    chunks = chunk_lists[sid]
                    # recovered sessions are live: continue where the
                    # acknowledged prefix ended
                    for index in range(len(chunks) // 2, len(chunks)):
                        client.feed(
                            sid, index, chunks[index],
                            eof=index == len(chunks) - 1,
                        )
                    assert_matches_batch(client, context, sid, seed)
                    close = client.close_session(sid)
                    assert close.status == "closed"
        finally:
            second.thread.stop()

    def test_snapshot_bounds_the_replayed_tail(self, context, tmp_path):
        """With a tight snapshot cadence, recovery replays only the
        records past the newest checkpoint -- and still lands on the
        batch answer."""
        config = durable_config(tmp_path, snapshot_every=4)
        first = start_server(context, config)
        port = first.port
        with DebugClient(first.host, port) as client:
            feed_session(client, context, "snap-a", 41)
            feed_session(client, context, "snap-b", 42)
            stats = client.stats()
        store_stats = stats["store"]
        assert store_stats["totals"]["snapshots_written"] > 0
        total_feeds = store_stats["totals"]["wal_appends"]
        first.thread.stop(abort=True)

        second = start_server(
            context, durable_config(
                tmp_path, port=port, snapshot_every=4
            )
        )
        try:
            recovery = second.thread.call(lambda: second.server.recovery_info)
            assert recovery["sessions"] == 2
            # the checkpoint did its job: the tail is a strict subset
            assert 0 <= recovery["replayed_records"] < total_feeds
            with DebugClient(second.host, port) as client:
                assert_matches_batch(client, context, "snap-a", 41)
                assert_matches_batch(client, context, "snap-b", 42)
        finally:
            second.thread.stop()

    def test_duplicate_feed_after_recovery_is_acked(
        self, context, tmp_path
    ):
        """A client retransmitting an already-durable chunk after the
        crash gets a duplicate ack carrying the high-watermark."""
        first = start_server(context, durable_config(tmp_path))
        port = first.port
        with DebugClient(first.host, port) as client:
            chunks = feed_session(
                client, context, "dup", 51, upto=2
            )
        first.thread.stop(abort=True)

        second = start_server(
            context, durable_config(tmp_path, port=port)
        )
        try:
            with DebugClient(second.host, port) as client:
                reply = client.feed("dup", 1, chunks[1])
                assert reply.duplicate
                assert reply.next_chunk == 2
        finally:
            second.thread.stop()

    def test_graceful_restart_preserves_sessions(
        self, context, tmp_path
    ):
        """A drain checkpoint means the next start replays nothing yet
        loses nothing."""
        first = start_server(context, durable_config(tmp_path))
        port = first.port
        chunks = render_session_chunks(
            context, seed=61, chunk_records=1
        )
        assert len(chunks) >= 3
        with DebugClient(first.host, port) as client:
            client.open_session("grace")
            for index in range(len(chunks) - 1):
                client.feed("grace", index, chunks[index])
        first.thread.stop()  # graceful: final snapshot per shard

        second = start_server(
            context, durable_config(tmp_path, port=port)
        )
        try:
            recovery = second.thread.call(lambda: second.server.recovery_info)
            assert recovery["sessions"] == 1
            assert recovery["replayed_records"] == 0
            with DebugClient(second.host, port) as client:
                reply = client.feed(
                    "grace", len(chunks) - 1, chunks[-1]
                )
                assert not reply.duplicate
        finally:
            second.thread.stop()

    def test_restart_on_a_torn_tail_reports_segment_and_shard(
        self, context, tmp_path
    ):
        """The restarted server's own report says what the crash cost:
        the torn segment, named by its shard, and the bytes dropped."""
        first = start_server(context, durable_config(tmp_path))
        port = first.port
        with DebugClient(first.host, port) as client:
            feed_session(client, context, "torn", 53, upto=2)
        shard = first.thread.call(lambda: first.server.shard_for("torn"))
        first.thread.stop(abort=True)
        shard_dir = shard.store.directory
        segment = wal.list_segments(shard_dir)[-1]
        segment.write_bytes(segment.read_bytes()[:-1])

        second = start_server(
            context, durable_config(tmp_path, port=port)
        )
        try:
            recovery = second.thread.call(lambda: second.server.recovery_info)
            assert recovery["sessions"] == 1
            torn = [
                note for note in recovery["diagnostics"]
                if note.startswith(f"{shard_dir.name}: {segment.name}: ")
            ]
            assert len(torn) == 1 and "torn record" in torn[0], recovery
            with DebugClient(second.host, port) as client:
                store = client.stats()["store"]
            assert store["recovery"]["diagnostics"] == (
                recovery["diagnostics"]
            )
            truncated = {
                entry["shard"]: entry["truncated_bytes"]
                for entry in store["shards"]
            }
            assert truncated[shard.index] > 0
            assert truncated[1 - shard.index] == 0
        finally:
            second.thread.stop()

    def test_stats_expose_the_store_plane(self, context, tmp_path):
        running = start_server(context, durable_config(tmp_path))
        try:
            with DebugClient(running.host, running.port) as client:
                feed_session(client, context, "st", 71, upto=2)
                store = client.stats()["store"]
            assert store["enabled"] is True
            assert store["fingerprint"]
            assert store["totals"]["wal_appends"] >= 3  # open + feeds
            assert len(store["shards"]) == 2
        finally:
            running.thread.stop()

    def test_in_memory_server_reports_store_disabled(self, context):
        running = start_server(context, ServerConfig(shards=1))
        try:
            with DebugClient(running.host, running.port) as client:
                assert client.stats()["store"] == {"enabled": False}
        finally:
            running.thread.stop()


# ----------------------------------------------------------------------
class TestEvictionSpill:
    def wait_for_spill(self, running, sid, timeout=5.0):
        """Wait until *sid*'s shard has spilled; returns the shard."""
        shard = running.thread.call(lambda: running.server.shard_for(sid))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if running.thread.call(lambda: shard.store.spills):
                return shard
            time.sleep(0.02)
        pytest.fail("idle sweeper never spilled the session")

    @pytest.mark.parametrize("transport", ["text", "ctrace"])
    def test_evicted_session_is_revived_transparently(
        self, context, tmp_path, transport
    ):
        running = start_server(
            context,
            durable_config(
                tmp_path, idle_timeout_s=0.05, idle_sweep_s=0.02,
                snapshot_every=(
                    2 if transport == "ctrace"
                    else ServerConfig.snapshot_every
                ),
            ),
        )
        try:
            chunks = session_chunks(context, 81, transport)
            last = len(chunks) - 1
            with DebugClient(running.host, running.port) as client:
                client.open_session("spilled", transport=transport)
                client.feed("spilled", 0, chunks[0])
                self.wait_for_spill(running, "spilled")
                # a plain feed revives it -- no client-side replay
                reply = client.feed("spilled", 1, chunks[1], eof=last == 1)
                assert not reply.duplicate
                for index in range(2, len(chunks)):
                    client.feed(
                        "spilled", index, chunks[index], eof=index == last
                    )
                assert_matches_batch(
                    client, context, "spilled", 81
                )
                store = client.stats()["store"]
                assert store["totals"]["spills"] >= 1
                assert store["totals"]["revivals"] >= 1
        finally:
            running.thread.stop()

    def test_resumed_open_reports_high_watermark(
        self, context, tmp_path
    ):
        running = start_server(
            context,
            durable_config(
                tmp_path, idle_timeout_s=0.05, idle_sweep_s=0.02
            ),
        )
        try:
            chunks = render_session_chunks(
                context, seed=82, chunk_records=4
            )
            with DebugClient(running.host, running.port) as client:
                # a spilled session resumes only for the token that
                # opened it
                client.open_session_info("resume", token="0000beef")
                client.feed("resume", 0, chunks[0])
                client.feed("resume", 1, chunks[1])
                self.wait_for_spill(running, "resume")
                info = client.open_session_info("resume", token="0000beef")
                assert info.get("resumed") is True
                assert info.get("next_chunk") == 2
        finally:
            running.thread.stop()

    def test_spilled_sessions_survive_a_crash(self, context, tmp_path):
        """Spill -> snapshot -> crash -> restart: the spilled session
        is still revivable with all its state."""
        config = durable_config(
            tmp_path, idle_timeout_s=0.05, idle_sweep_s=0.02
        )
        first = start_server(context, config)
        port = first.port
        chunks = render_session_chunks(
            context, seed=83, chunk_records=4
        )
        with DebugClient(first.host, port) as client:
            client.open_session("sleeper")
            client.feed("sleeper", 0, chunks[0])
            shard = self.wait_for_spill(first, "sleeper")
            # force the spill map into a durable snapshot
            first.thread.call(shard.checkpoint)
        first.thread.stop(abort=True)

        second = start_server(
            context, durable_config(tmp_path, port=port)
        )
        try:
            with DebugClient(second.host, port) as client:
                for index in range(1, len(chunks)):
                    client.feed("sleeper", index, chunks[index])
                assert_matches_batch(client, context, "sleeper", 83)
        finally:
            second.thread.stop()


    def idle_then_open(self, running, chunks):
        """Feed ``sleeper`` one chunk, let it go idle, then open
        ``newcomer`` -- whose admission evicts ``sleeper`` long before
        the next sweep is due."""
        with DebugClient(running.host, running.port) as client:
            client.open_session("sleeper")
            client.feed("sleeper", 0, chunks[0])
            time.sleep(0.4)
            client.open_session("newcomer")
        return running.thread.call(lambda: running.server.shard_for("sleeper"))

    def test_eviction_by_a_fresh_open_spills(self, context, tmp_path):
        """An eviction that an OPEN triggers spills the idle session,
        just like the periodic sweep does."""
        running = start_server(
            context,
            durable_config(
                tmp_path, shards=1, idle_timeout_s=0.2, idle_sweep_s=60
            ),
        )
        try:
            chunks = render_session_chunks(
                context, seed=84, chunk_records=4
            )
            shard = self.idle_then_open(running, chunks)
            assert running.thread.call(lambda: shard.store.spills) == 1
            with DebugClient(running.host, running.port) as client:
                reply = client.feed("sleeper", 1, chunks[1])
                assert not reply.duplicate
                for index in range(2, len(chunks)):
                    client.feed("sleeper", index, chunks[index])
                assert_matches_batch(client, context, "sleeper", 84)
        finally:
            running.thread.stop()

    def test_session_evicted_by_an_open_survives_a_crash(
        self, context, tmp_path
    ):
        """acked => durable through that eviction: the spilled session
        rides the next snapshot and comes back after a crash with its
        chunk cursor."""
        first = start_server(
            context,
            durable_config(
                tmp_path, shards=1, idle_timeout_s=0.2, idle_sweep_s=60
            ),
        )
        port = first.port
        chunks = render_session_chunks(context, seed=85, chunk_records=4)
        shard = self.idle_then_open(first, chunks)
        first.thread.call(shard.checkpoint)
        first.thread.stop(abort=True)

        second = start_server(
            context, durable_config(tmp_path, shards=1, port=port)
        )
        try:
            with DebugClient(second.host, port) as client:
                assert client.snapshot("sleeper").next_chunk == 1
                for index in range(1, len(chunks)):
                    client.feed("sleeper", index, chunks[index])
                assert_matches_batch(client, context, "sleeper", 85)
        finally:
            second.thread.stop()


# ----------------------------------------------------------------------
class TestClientResume:
    def test_lost_wal_tail_is_retransmitted_incrementally(
        self, context, tmp_path
    ):
        """Truncate the WAL behind the server's back (a crash that ate
        un-synced records): the SessionFeed retransmits only the tail
        the server reports missing -- not the whole history."""
        first = start_server(context, durable_config(tmp_path))
        port = first.port
        client = DebugClient(first.host, port)
        feed = SessionFeed(client, session_id="tail")
        chunks = render_session_chunks(
            context, seed=91, chunk_records=1
        )
        assert len(chunks) >= 4
        for chunk in chunks[:-1]:
            feed.feed(chunk)
        first.thread.stop(abort=True)

        # the crash ate the last durable FEED record of this session
        from repro.store import wal as wal_mod

        clipped = 0
        for shard_dir in sorted(Path(tmp_path).glob("shard-*")):
            segments = wal_mod.list_segments(shard_dir)
            if not segments:
                continue
            last = segments[-1]
            records, _, torn = wal_mod.read_segment(last)
            assert torn is None
            if records and records[-1].rec_type == wal_mod.WAL_FEED:
                keep = sum(r.size_bytes for r in records[:-1])
                with open(last, "r+b") as stream:
                    stream.truncate(keep)
                clipped += 1
        assert clipped == 1  # one session -> one shard holds it

        second = start_server(
            context, durable_config(tmp_path, port=port)
        )
        try:
            sent = []
            self.counting(client, sent)
            feed.feed(chunks[-1], eof=True)
            # exactly: the rejected new chunk, the one lost chunk,
            # then the retried new chunk -- no full replay
            assert sent == [
                len(chunks) - 1, len(chunks) - 2, len(chunks) - 1,
            ]
            assert feed.recoveries == 1
            snap = feed.snapshot()
            expected_records, expected = batch_answer(context, 91)
            assert snap.observed_length == expected_records
            assert (
                snap.result.consistent_paths,
                snap.result.total_paths,
            ) == (expected.consistent_paths, expected.total_paths)
            client.close()
        finally:
            second.thread.stop()

    @staticmethod
    def counting(client, sent):
        """Record the chunk index of every FEED *client* sends."""
        original = client.feed

        def feed(sid, index, data, eof=False):
            sent.append(index)
            return original(sid, index, data, eof=eof)

        client.feed = feed

    def test_resumed_reopen_replays_from_the_servers_cursor(
        self, context, tmp_path
    ):
        """The session's shard spilled it, then degraded, so a FEED
        gets ``unknown-session``; by the reopen the server restarted
        with the session spilled at chunk 3.  The reopen is resumed
        and the feed replays from the server's ``next_chunk``, not
        from chunk zero."""
        config = durable_config(
            tmp_path, shards=1, idle_timeout_s=0.2, idle_sweep_s=60,
            snapshot_every=1,
        )
        servers = [start_server(context, config)]
        port = servers[0].port
        client = DebugClient(servers[0].host, port)
        try:
            feed = SessionFeed(client, session_id="sleeper")
            chunks = render_session_chunks(context, seed=93, chunk_records=1)
            assert len(chunks) >= 5
            for chunk in chunks[:3]:
                feed.feed(chunk)
            waker = render_session_chunks(context, seed=94, chunk_records=1)
            time.sleep(0.4)
            client.open_session("waker")  # its admission spills sleeper
            client.feed("waker", 0, waker[0])  # a checkpoint holds it
            with installed(degrading_gate()):
                client.feed("waker", 1, waker[1])

            def spilled_on_a_degraded_shard():
                shard = servers[0].server.shard_for("sleeper")
                spilled = "sleeper" in shard.store.spilled_ids()
                return shard.degraded and spilled

            assert servers[0].thread.call(spilled_on_a_degraded_shard)

            reopen = client.open_session_info

            def restart_then_reopen(**kwargs):
                servers[0].thread.stop(abort=True)
                servers.append(start_server(
                    context, durable_config(tmp_path, shards=1, port=port)
                ))
                return reopen(**kwargs)

            client.open_session_info = restart_then_reopen
            sent = []
            self.counting(client, sent)
            feed.feed(chunks[3])
            # the refused FEED, the replay from next_chunk 3, and the
            # retried FEED, answered as a duplicate
            assert sent == [3, 3, 3]
            assert feed.recoveries == 1
            last = len(chunks) - 1
            for index in range(4, len(chunks)):
                feed.feed(chunks[index], eof=index == last)
            snap = feed.snapshot()
            assert_batch_answer(snap.observed_length, snap.result, context, 93)
        finally:
            client.close()
            servers[-1].thread.stop()

    def recovered_without_tail(self, context, tmp_path, seed):
        """A SessionFeed fed all of session *seed*, whose server acked
        every chunk from the third on from memory (the shard degraded
        on that chunk's WAL append), crashed and restarted on its
        directory with the session at chunk 2.  Returns the feed, how
        many chunks it fed, and the restarted server."""
        first = start_server(context, durable_config(tmp_path, shards=1))
        try:
            feed = SessionFeed(
                DebugClient(first.host, first.port), session_id="healed"
            )
            chunks = render_session_chunks(
                context, seed=seed, chunk_records=1
            )
            assert len(chunks) >= 4
            last = len(chunks) - 1
            for index, chunk in enumerate(chunks):
                if index == 2:
                    with installed(degrading_gate()):
                        feed.feed(chunk)
                else:
                    feed.feed(chunk, eof=index == last)
            assert first.thread.call(
                lambda: first.server.shard_for("healed").degraded
            )
        finally:
            first.thread.stop(abort=True)
        second = start_server(
            context, durable_config(tmp_path, shards=1, port=first.port)
        )
        return feed, len(chunks), second

    def test_snapshot_resyncs_a_tail_the_server_lost(
        self, context, tmp_path
    ):
        feed, fed, second = self.recovered_without_tail(
            context, tmp_path, 96
        )
        sent = []
        self.counting(feed.client, sent)
        try:
            snap = feed.snapshot()
            assert sent == list(range(2, fed))
            assert feed.recoveries == 1
            assert snap.next_chunk == fed
            assert_batch_answer(snap.observed_length, snap.result, context, 96)
        finally:
            feed.client.close()
            second.thread.stop()

    def test_close_reopens_and_replays_a_tail_the_server_lost(
        self, context, tmp_path
    ):
        feed, fed, second = self.recovered_without_tail(
            context, tmp_path, 97
        )
        sent = []
        self.counting(feed.client, sent)
        try:
            close = feed.close()
            # the first CLOSE retired the session short of its tail:
            # the reopen is fresh, so everything is replayed
            assert sent == list(range(fed))
            assert feed.recoveries == 1
            assert close.next_chunk == fed
            assert_batch_answer(close.records, close.result, context, 97)
        finally:
            feed.client.close()
            second.thread.stop()


# ----------------------------------------------------------------------
class TestIdentityGuards:
    def test_fingerprint_mismatch_refuses_to_start(
        self, context, cc_flow, tmp_path
    ):
        first = start_server(context, durable_config(tmp_path))
        with DebugClient(first.host, first.port) as client:
            feed_session(client, context, "fp", 95, upto=1)
        first.thread.stop()

        # same scenario name, different traced set -> different tables
        from repro.core.interleave import interleave_flows

        other = ServeContext.from_components(
            interleave_flows([cc_flow], copies=2),
            (cc_flow.message_by_name("ReqE"),),
            name="cc-test",
        )
        with pytest.raises(StoreError, match="fingerprint"):
            start_server(other, durable_config(tmp_path))

    def test_shard_count_mismatch_refuses_to_start(
        self, context, tmp_path
    ):
        first = start_server(
            context, durable_config(tmp_path, shards=2)
        )
        first.thread.stop()
        with pytest.raises(StoreError, match="shard"):
            start_server(context, durable_config(tmp_path, shards=3))

    def test_refusal_does_not_poison_the_data_dir(
        self, context, tmp_path
    ):
        first = start_server(context, durable_config(tmp_path))
        with DebugClient(first.host, first.port) as client:
            feed_session(client, context, "keep", 96, upto=2)
        first.thread.stop(abort=True)
        with pytest.raises(StoreError):
            start_server(context, durable_config(tmp_path, shards=3))
        # the right shape still recovers everything
        second = start_server(context, durable_config(tmp_path))
        try:
            assert second.thread.call(
                lambda: second.server.recovery_info
            )["sessions"] == 1
        finally:
            second.thread.stop()


# ----------------------------------------------------------------------
SUBPROCESS_LOADER = """
import sys, time
from pathlib import Path

from repro.core.interleave import interleave_flows
from repro.examples_builtin import toy_cache_coherence_flow
from repro.server import DebugClient, ServeContext, ServerConfig, ServerThread
from repro.server.loadgen import render_session_chunks

data_dir = sys.argv[1]
marker = Path(sys.argv[2])

flow = toy_cache_coherence_flow()
context = ServeContext.from_components(
    interleave_flows([flow], copies=2),
    (flow.message_by_name("ReqE"), flow.message_by_name("GntE")),
    name="cc-test",
)
thread = ServerThread(
    context,
    ServerConfig(shards=2, data_dir=data_dir, fsync="off"),
)
host, port = thread.start()
with DebugClient(host, port) as client:
    for sid, seed in (("sub-a", 101), ("sub-b", 102)):
        client.open_session(sid)
        chunks = render_session_chunks(context, seed=seed, chunk_records=4)
        for index, chunk in enumerate(chunks):
            client.feed(sid, index, chunk)
marker.write_text("fed")
time.sleep(600)  # hold everything in memory until the SIGKILL
"""


def test_sigkilled_subprocess_recovers_bit_identical(
    context, tmp_path
):
    """The real crash: a separate OS process is SIGKILL'd mid-load.
    A fresh server on the same directory must recover both sessions to
    the exact batch answers."""
    data_dir = tmp_path / "data"
    marker = tmp_path / "fed.marker"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(SUBPROCESS_LOADER),
         str(data_dir), str(marker)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not marker.exists():
            if proc.poll() is not None:
                raise AssertionError(
                    "loader died early: "
                    + proc.stderr.read().decode("utf-8", "replace")
                )
            if time.monotonic() > deadline:
                raise AssertionError("loader never reported ready")
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait(timeout=30.0)
        proc.stdout.close()
        proc.stderr.close()

    running = start_server(context, durable_config(data_dir))
    try:
        assert running.thread.call(
            lambda: running.server.recovery_info
        )["sessions"] == 2
        with DebugClient(running.host, running.port) as client:
            assert_matches_batch(client, context, "sub-a", 101)
            assert_matches_batch(client, context, "sub-b", 102)
            for sid in ("sub-a", "sub-b"):
                close = client.close_session(sid)
                assert close.status == "closed"
    finally:
        running.thread.stop()
