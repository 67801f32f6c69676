"""SessionStore facade tests: logging, snapshot cadence, compaction,
the spill map, cold/warm recovery through ``open()``, and how often
each reads the disk."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.server.protocol import decode_feed_payload_ex
from repro.store import snapshot as snapshot_mod
from repro.store import wal
from repro.store.inspect import shard_directory, verify_store
from repro.store.store import SessionStore, recover_directory
from tests.store.test_wal import wal_bytes, write_segment


def open_store(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "off")
    store = SessionStore(tmp_path, **kwargs)
    recovered = store.open()
    return store, recovered


class TestLogging:
    def test_open_feed_close_round_trip(self, tmp_path):
        store, recovered = open_store(tmp_path)
        assert recovered.snapshot is None and recovered.tail == ()
        store.log_open("s1", "prefix", "text")
        store.log_feed("s1", 0, b"data", eof=False)
        store.log_close("s1")
        store.close()

        scan = wal.scan_wal(tmp_path)
        assert [r.rec_type for r in scan.records] == [
            wal.WAL_OPEN, wal.WAL_FEED, wal.WAL_CLOSE,
        ]
        assert json.loads(scan.records[0].payload) == {
            "mode": "prefix", "session_id": "s1", "transport": "text",
        }
        # the FEED payload is the wire codec's, verbatim
        assert decode_feed_payload_ex(scan.records[1].payload) == (
            "s1", 0, False, b"data", None,
        )
        assert json.loads(scan.records[2].payload) == {
            "session_id": "s1"
        }

    def test_logging_before_open_raises(self, tmp_path):
        store = SessionStore(tmp_path)
        with pytest.raises(StoreError, match="not open"):
            store.log_close("s1")

    def test_double_open_raises(self, tmp_path):
        store, _ = open_store(tmp_path)
        with pytest.raises(StoreError, match="already open"):
            store.open()
        store.close()

    def test_reopened_store_continues_the_lsn_sequence(self, tmp_path):
        store, _ = open_store(tmp_path)
        assert store.log_open("s1", "prefix", "text") == 1
        store.close()
        store2, recovered = open_store(tmp_path)
        assert recovered.next_lsn == 2
        assert store2.log_feed("s1", 0, b"x", eof=False) == 2
        store2.close()


class TestSnapshotCadence:
    def test_should_snapshot_counts_feeds(self, tmp_path):
        store, _ = open_store(tmp_path, snapshot_every=3)
        store.log_open("s1", "prefix", "text")
        for index in range(3):
            assert not store.should_snapshot()
            store.log_feed("s1", index, b"x", eof=False)
        assert store.should_snapshot()
        store.write_snapshot([], "fp", "scn", "prefix", 0)
        assert not store.should_snapshot()
        store.close()

    def test_zero_cadence_disables_automatic_snapshots(self, tmp_path):
        store, _ = open_store(tmp_path, snapshot_every=0)
        store.log_open("s1", "prefix", "text")
        for index in range(100):
            store.log_feed("s1", index, b"x", eof=False)
        assert not store.should_snapshot()
        store.close()

    def test_snapshot_rotates_prunes_and_compacts(self, tmp_path):
        store, _ = open_store(tmp_path, snapshot_every=1)
        store.log_open("s1", "prefix", "text")
        for index in range(4):
            store.log_feed("s1", index, b"x", eof=False)
            store.write_snapshot(
                [{"session_id": "s1"}], "fp", "scn", "prefix", 0
            )
        assert store.snapshots_written == 4
        assert len(snapshot_mod.list_snapshots(tmp_path)) == 2
        # every fully-covered segment is gone; the live one remains
        assert store.segments_compacted > 0
        assert len(wal.list_segments(tmp_path)) <= 1
        store.close()


class TestRecoveryThroughOpen:
    def test_snapshot_plus_tail(self, tmp_path):
        store, _ = open_store(tmp_path, snapshot_every=0)
        store.log_open("s1", "prefix", "text")
        store.log_feed("s1", 0, b"a", eof=False)
        store.write_snapshot(
            [{"session_id": "s1"}], "fp", "scn", "prefix", 3
        )
        store.log_feed("s1", 1, b"b", eof=False)  # past the snapshot
        store.close()

        store2, recovered = open_store(tmp_path)
        assert recovered.snapshot["session_counter"] == 3
        assert recovered.snapshot_lsn == 2
        assert [r.lsn for r in recovered.tail] == [3]
        assert decode_feed_payload_ex(recovered.tail[0].payload)[1] == 1
        store2.close()

    def test_open_repairs_a_torn_tail_first(self, tmp_path):
        store, _ = open_store(tmp_path)
        store.log_open("s1", "prefix", "text")
        store.log_feed("s1", 0, b"abcdef", eof=False)
        store.close()
        segment = wal.list_segments(tmp_path)[-1]
        segment.write_bytes(segment.read_bytes()[:-2])  # torn crash tail

        store2, recovered = open_store(tmp_path)
        assert store2.truncated_bytes > 0
        assert [r.rec_type for r in recovered.tail] == [wal.WAL_OPEN]
        # the writer appends where the trusted prefix ended
        assert store2.log_feed("s1", 0, b"abcdef", eof=False) == 2
        store2.close()
        assert len(wal.scan_wal(tmp_path).records) == 2

    def test_spilled_sessions_survive_via_the_snapshot(self, tmp_path):
        store, _ = open_store(tmp_path)
        store.log_open("s1", "prefix", "text")
        store.spill({"session_id": "s1", "next_chunk": 4})
        store.write_snapshot([], "fp", "scn", "prefix", 0)
        store.close()

        store2, _ = open_store(tmp_path)
        assert store2.spilled_ids() == ("s1",)
        revived = store2.take_spilled("s1")
        assert revived["next_chunk"] == 4
        assert store2.take_spilled("s1") is None  # claimed exactly once
        assert store2.revivals == 1
        store2.close()


class TestSpillMap:
    def test_spill_take_drop(self, tmp_path):
        store, _ = open_store(tmp_path)
        store.spill({"session_id": "b"})
        store.spill({"session_id": "a"})
        assert store.spilled_ids() == ("a", "b")
        store.drop_spilled("a")
        assert store.spilled_ids() == ("b",)
        assert store.take_spilled("missing") is None
        assert store.spills == 2
        store.close()

    def test_stats_shape(self, tmp_path):
        store, _ = open_store(tmp_path)
        store.log_open("s1", "prefix", "text")
        stats = store.stats()
        for key in (
            "wal_appends", "wal_bytes_appended", "wal_fsyncs",
            "wal_segments", "wal_next_lsn", "snapshots_written",
            "snapshot_bytes", "segments_compacted", "spilled_sessions",
            "spills", "revivals", "truncated_bytes",
        ):
            assert key in stats
        assert stats["wal_appends"] == 1
        store.close()


class TestRecoverDirectory:
    def test_corrupt_newest_snapshot_falls_back_with_diagnostics(
        self, tmp_path
    ):
        store, _ = open_store(tmp_path)
        store.log_open("s1", "prefix", "text")
        store.write_snapshot([], "fp", "scn", "prefix", 0)
        store.log_feed("s1", 0, b"x", eof=False)
        store.write_snapshot([], "fp", "scn", "prefix", 0)
        store.close()
        newest = snapshot_mod.list_snapshots(tmp_path)[-1]
        newest.write_bytes(newest.read_bytes()[:-1])

        recovered = recover_directory(tmp_path)
        assert recovered.snapshot is not None
        assert recovered.snapshot_lsn == 1  # the older snapshot
        assert recovered.diagnostics  # the torn one was reported
        # the feed past the older snapshot is replayed, not lost
        assert [r.rec_type for r in recovered.tail] == [wal.WAL_FEED]


class TestOneRead:
    """A start reads each WAL segment once and repairs from that read;
    a checkpoint reads nothing back."""

    def counting(self, monkeypatch, module, name):
        """Count the calls of *module*'s function *name*; returns the
        list of paths it was called with."""
        calls = []
        original = getattr(module, name)

        def counted(path):
            calls.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_open_reads_each_segment_once(self, tmp_path, monkeypatch):
        writer = wal.WalWriter(tmp_path, fsync="off", segment_bytes=64)
        for _ in range(4):
            writer.append(wal.WAL_FEED, b"x" * 40)
        writer.close()
        segments = wal.list_segments(tmp_path)
        assert len(segments) == 4
        # a torn tail, so the start has something to repair
        segments[-1].write_bytes(segments[-1].read_bytes()[:-1])
        reads = self.counting(monkeypatch, wal, "read_segment")

        store, recovered = open_store(tmp_path)
        store.close()
        assert sorted(reads) == [path.name for path in segments]
        assert store.truncated_bytes == wal.RECORD_OVERHEAD_BYTES + 39
        assert [r.lsn for r in recovered.tail] == [1, 2, 3]

    def test_checkpoint_reads_no_snapshot(self, tmp_path, monkeypatch):
        store, _ = open_store(tmp_path, snapshot_every=1)
        reads = self.counting(monkeypatch, snapshot_mod, "read_snapshot")
        store.log_open("s1", "prefix", "text")
        for index in range(3):
            store.log_feed("s1", index, b"x", eof=False)
            store.write_snapshot(
                [{"session_id": "s1"}], "fp", "scn", "prefix", 0
            )
        store.close()
        assert reads == []
        # compaction still ran, with the LSN each checkpoint wrote
        assert store.segments_compacted == 2
        assert [
            wal.segment_first_lsn(path)
            for path in wal.list_segments(tmp_path)
        ] == [4]

    def test_verify_counts_the_bytes_a_start_drops(self, tmp_path):
        # an LSN gap: the segment past it is untrusted, so the next
        # start deletes it whole, and verify must say so beforehand
        shard_dir = shard_directory(tmp_path, 0)
        shard_dir.mkdir()
        write_segment(
            shard_dir, [(wal.WAL_OPEN, b"a"), (wal.WAL_FEED, b"b")]
        )
        gap = write_segment(
            shard_dir, [(wal.WAL_FEED, b"c" * 40)], first_lsn=5
        )
        size = gap.stat().st_size
        (report,) = verify_store(tmp_path)["shards"]
        before = wal_bytes(shard_dir)

        store, _ = open_store(shard_dir)
        store.close()
        assert not gap.exists()
        assert report["truncated_bytes"] == before - wal_bytes(shard_dir)
        assert store.truncated_bytes == size == report["truncated_bytes"]
