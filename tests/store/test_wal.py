"""WAL unit + property tests: framing round-trip, torn-write
truncation, no-resync corruption handling, and directory repair."""

from __future__ import annotations

import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.store import wal


def write_segment(directory, records, first_lsn=1):
    """Append *records* as one segment file; returns its path."""
    path = directory / wal.segment_name(first_lsn)
    blob = b"".join(
        wal.encode_record(rec_type, first_lsn + i, payload)
        for i, (rec_type, payload) in enumerate(records)
    )
    path.write_bytes(blob)
    return path


# ----------------------------------------------------------------------
# record framing
class TestRecordFraming:
    def test_round_trip(self):
        blob = wal.encode_record(wal.WAL_FEED, 7, b"payload")
        records, valid, torn = wal.scan_records(blob)
        assert torn is None
        assert valid == len(blob)
        assert records == [
            wal.WalRecord(lsn=7, rec_type=wal.WAL_FEED, payload=b"payload")
        ]
        assert records[0].size_bytes == len(blob)

    def test_records_open_with_the_compressed_trace_sync_word(self):
        # wal.py keeps its own copy, so that logging never imports the
        # trace codec; the bytes on disk are the codec's sync word
        from repro.compress.framing import SYNC

        assert wal.SYNC == SYNC == b"\xa5\xc3"
        blob = wal.encode_record(wal.WAL_FEED, 7, b"payload")
        assert blob[:15] == (
            b"\xa5\xc3\x02" + (7).to_bytes(8, "big") + (7).to_bytes(4, "big")
        )

    def test_overhead_constant_matches_layout(self):
        blob = wal.encode_record(wal.WAL_OPEN, 1, b"")
        assert len(blob) == wal.RECORD_OVERHEAD_BYTES

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(StoreError):
            wal.encode_record(256, 1, b"")
        with pytest.raises(StoreError):
            wal.encode_record(wal.WAL_OPEN, 1 << 64, b"")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    (wal.WAL_OPEN, wal.WAL_FEED, wal.WAL_CLOSE)
                ),
                st.binary(max_size=200),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_concatenation_round_trips(self, specs):
        blob = b"".join(
            wal.encode_record(rec_type, i + 1, payload)
            for i, (rec_type, payload) in enumerate(specs)
        )
        records, valid, torn = wal.scan_records(blob)
        assert torn is None
        assert valid == len(blob)
        assert [
            (r.rec_type, r.payload) for r in records
        ] == [tuple(s) for s in specs]
        assert [r.lsn for r in records] == list(
            range(1, len(specs) + 1)
        )

    @given(st.binary(max_size=200), st.integers(min_value=1))
    @settings(max_examples=50)
    def test_any_truncation_keeps_only_whole_records(
        self, payload, cut
    ):
        # two records; cut anywhere inside the second: the first
        # must survive intact and the scan must report the tear
        blob = wal.encode_record(
            wal.WAL_FEED, 1, payload
        ) + wal.encode_record(wal.WAL_FEED, 2, payload)
        first_len = wal.RECORD_OVERHEAD_BYTES + len(payload)
        # cut strictly inside the second record
        cut = first_len + 1 + (cut - 1) % (len(blob) - first_len - 1)
        records, valid, torn = wal.scan_records(blob[:cut])
        assert torn is not None
        assert valid == first_len
        assert [r.lsn for r in records] == [1]

    def test_corrupt_byte_stops_the_scan_without_resync(self):
        # flip one payload byte of the middle record: the CRC fails
        # there and -- unlike the trace decoder -- nothing after the
        # corruption is trusted, even though record 3 is pristine
        blob = b"".join(
            wal.encode_record(wal.WAL_FEED, lsn, b"x" * 32)
            for lsn in (1, 2, 3)
        )
        size = wal.RECORD_OVERHEAD_BYTES + 32
        mangled = bytearray(blob)
        mangled[size + 20] ^= 0xFF
        records, valid, torn = wal.scan_records(bytes(mangled))
        assert [r.lsn for r in records] == [1]
        assert valid == size
        assert "CRC mismatch" in torn

    def test_implausible_length_is_corruption_not_allocation(self):
        blob = bytearray(wal.encode_record(wal.WAL_FEED, 1, b"hi"))
        blob[11:15] = (wal.MAX_RECORD_PAYLOAD + 1).to_bytes(4, "big")
        records, valid, torn = wal.scan_records(bytes(blob))
        assert records == [] and valid == 0
        assert "implausible" in torn


# ----------------------------------------------------------------------
# directory scan
class TestScanWal:
    def test_empty_directory(self, tmp_path):
        scan = wal.scan_wal(tmp_path)
        assert scan.records == () and scan.next_lsn == 1
        assert scan.segments == 0 and scan.diagnostics == ()

    def test_records_cross_segments(self, tmp_path):
        write_segment(
            tmp_path, [(wal.WAL_OPEN, b"a"), (wal.WAL_FEED, b"b")]
        )
        write_segment(tmp_path, [(wal.WAL_FEED, b"c")], first_lsn=3)
        scan = wal.scan_wal(tmp_path)
        assert [r.lsn for r in scan.records] == [1, 2, 3]
        assert scan.next_lsn == 4 and scan.segments == 2

    def test_torn_tail_in_last_segment_is_just_truncated(self, tmp_path):
        path = write_segment(
            tmp_path, [(wal.WAL_FEED, b"a"), (wal.WAL_FEED, b"bb")]
        )
        data = path.read_bytes()
        path.write_bytes(data[:-1])  # lose the crash's final byte
        scan = wal.scan_wal(tmp_path)
        assert [r.lsn for r in scan.records] == [1]
        assert scan.next_lsn == 2
        assert scan.truncated_bytes == wal.RECORD_OVERHEAD_BYTES + 2 - 1
        assert any("torn" in d for d in scan.diagnostics)

    def test_torn_middle_segment_ends_the_log(self, tmp_path):
        # segment 2 is torn; pristine segment 3 must be ignored --
        # replaying past a hole would reorder history
        write_segment(tmp_path, [(wal.WAL_FEED, b"a")])
        torn = write_segment(
            tmp_path, [(wal.WAL_FEED, b"bb")], first_lsn=2
        )
        torn.write_bytes(torn.read_bytes()[:-1])
        write_segment(tmp_path, [(wal.WAL_FEED, b"cc")], first_lsn=3)
        scan = wal.scan_wal(tmp_path)
        assert [r.lsn for r in scan.records] == [1]
        assert any("ignoring 1 later segment" in d
                   for d in scan.diagnostics)

    def test_lsn_discontinuity_ends_the_log(self, tmp_path):
        write_segment(tmp_path, [(wal.WAL_FEED, b"a")])
        write_segment(tmp_path, [(wal.WAL_FEED, b"c")], first_lsn=5)
        scan = wal.scan_wal(tmp_path)
        assert [r.lsn for r in scan.records] == [1]
        assert any("discontinuity" in d for d in scan.diagnostics)

    def test_malformed_segment_name_raises(self, tmp_path):
        with pytest.raises(StoreError):
            wal.segment_first_lsn(tmp_path / "wal-nonsense.seg")


# ----------------------------------------------------------------------
# repair
def wal_bytes(directory):
    return sum(p.stat().st_size for p in wal.list_segments(directory))


def repair(directory):
    """Scan *directory*, then repair it from that scan; returns ``(bytes
    dropped, deleted segment names)`` and checks that the repair
    dropped exactly the bytes the scan said it would."""
    scan = wal.scan_wal(directory)
    before = wal_bytes(directory)
    removed = wal.repair_wal(scan)
    assert before - wal_bytes(directory) == scan.truncated_bytes
    return scan.truncated_bytes, removed


class TestRepairWal:
    def test_clean_directory_is_untouched(self, tmp_path):
        path = write_segment(
            tmp_path, [(wal.WAL_FEED, b"a"), (wal.WAL_FEED, b"b")]
        )
        before = path.read_bytes()
        truncated, removed = repair(tmp_path)
        assert (truncated, removed) == (0, [])
        assert path.read_bytes() == before

    def test_torn_tail_is_truncated_in_place(self, tmp_path):
        path = write_segment(
            tmp_path, [(wal.WAL_FEED, b"a"), (wal.WAL_FEED, b"bb")]
        )
        path.write_bytes(path.read_bytes()[:-1])
        truncated, removed = repair(tmp_path)
        assert truncated == wal.RECORD_OVERHEAD_BYTES + 2 - 1
        assert removed == []
        # the file now ends exactly on the trusted prefix
        records, valid, torn = wal.read_segment(path)
        assert torn is None and [r.lsn for r in records] == [1]

    def test_empty_segment_from_a_crashed_writer_is_deleted(
        self, tmp_path
    ):
        # a crashed process opened wal-...2.seg but never wrote to it;
        # left in place it would collide with the restarted writer's
        # first rotation at LSN 2
        write_segment(tmp_path, [(wal.WAL_FEED, b"a")])
        ghost = tmp_path / wal.segment_name(2)
        ghost.touch()
        truncated, removed = repair(tmp_path)
        assert removed == [ghost.name]
        assert not ghost.exists()

    def test_untrusted_later_segments_are_deleted(self, tmp_path):
        keep = write_segment(tmp_path, [(wal.WAL_FEED, b"a")])
        torn = write_segment(
            tmp_path, [(wal.WAL_FEED, b"bb")], first_lsn=2
        )
        torn.write_bytes(torn.read_bytes()[:5])  # nothing trusted
        later = write_segment(
            tmp_path, [(wal.WAL_FEED, b"cc")], first_lsn=3
        )
        truncated, removed = repair(tmp_path)
        assert set(removed) == {torn.name, later.name}
        assert keep.exists() and truncated > 0

    def test_writer_restarts_cleanly_after_repair(self, tmp_path):
        # the full crash signature: torn tail + ghost segment; after
        # repair a new writer must append at the right LSN without
        # name collisions
        path = write_segment(
            tmp_path, [(wal.WAL_FEED, b"a"), (wal.WAL_FEED, b"bb")]
        )
        path.write_bytes(path.read_bytes()[:-1])
        (tmp_path / wal.segment_name(2)).touch()
        scan = wal.scan_wal(tmp_path)
        wal.repair_wal(scan)
        writer = wal.WalWriter(
            tmp_path, fsync="off", next_lsn=scan.next_lsn
        )
        assert writer.append(wal.WAL_FEED, b"resumed") == 2
        writer.close()
        assert [r.lsn for r in wal.scan_wal(tmp_path).records] == [1, 2]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),  # records
                st.sampled_from((0, 0, 0, 2)),  # LSN jump before it
                st.one_of(st.none(), st.integers(min_value=0)),  # cut
            ),
            max_size=4,
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_repair_leaves_exactly_the_scanned_prefix(
        self, specs, ghost
    ):
        # segments with LSN gaps and torn ends anywhere, and maybe the
        # zero-byte segment of a crashed writer: the repair drops what
        # the scan counted, and the directory then scans clean to the
        # same records
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            lsn = 1
            for count, jump, cut in specs:
                lsn += jump
                path = write_segment(
                    directory, [(wal.WAL_FEED, b"x" * lsn)] * count, lsn
                )
                if cut is not None:
                    data = path.read_bytes()
                    path.write_bytes(data[: cut % len(data)])
                lsn += count
            if ghost:
                (directory / wal.segment_name(lsn)).touch()
            scan = wal.scan_wal(directory)
            truncated, _ = repair(directory)
            again = wal.scan_wal(directory)
            assert again.records == scan.records
            assert again.next_lsn == scan.next_lsn
            assert (again.diagnostics, again.cut, again.empty) == ((), None, ())
            assert again.truncated_bytes == 0
            assert truncated == scan.truncated_bytes


# ----------------------------------------------------------------------
# writer
class TestWalWriter:
    def test_lsns_are_consecutive_across_rotation(self, tmp_path):
        writer = wal.WalWriter(
            tmp_path, fsync="off", segment_bytes=64
        )
        lsns = [
            writer.append(wal.WAL_FEED, b"x" * 40) for _ in range(4)
        ]
        writer.close()
        assert lsns == [1, 2, 3, 4]
        assert len(wal.list_segments(tmp_path)) > 1
        scan = wal.scan_wal(tmp_path)
        assert [r.lsn for r in scan.records] == lsns

    def test_refuses_to_overwrite_an_existing_segment(self, tmp_path):
        write_segment(tmp_path, [(wal.WAL_FEED, b"a")])
        writer = wal.WalWriter(tmp_path, fsync="off", next_lsn=1)
        with pytest.raises(StoreError, match="refusing"):
            writer.append(wal.WAL_FEED, b"clobber")

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            wal.WalWriter(tmp_path, fsync="sometimes")

    def test_always_policy_fsyncs_every_append(self, tmp_path):
        writer = wal.WalWriter(tmp_path, fsync="always")
        writer.append(wal.WAL_FEED, b"a")
        writer.append(wal.WAL_FEED, b"b")
        assert writer.fsyncs == 2
        writer.close()

    def test_off_policy_fsyncs_only_on_close(self, tmp_path):
        writer = wal.WalWriter(tmp_path, fsync="off")
        writer.append(wal.WAL_FEED, b"a")
        assert writer.fsyncs == 0
        writer.close()

    def test_interval_policy_fsyncs_on_appends_only(
        self, tmp_path, monkeypatch
    ):
        # an append fsyncs once fsync_interval_s has passed since the
        # last fsync; nothing syncs an idle writer, so the tail after
        # the last such append stays unsynced until close()
        now = [1000.0]
        monkeypatch.setattr(
            wal, "time", types.SimpleNamespace(monotonic=lambda: now[0])
        )
        synced = []  # bytes on disk at each fsync
        real_fsync = wal.os.fsync

        def fsync(fd):
            synced.append(wal.os.fstat(fd).st_size)
            real_fsync(fd)

        monkeypatch.setattr(wal.os, "fsync", fsync)
        writer = wal.WalWriter(tmp_path, fsync="interval")
        assert writer.fsync_interval_s == 0.05
        sizes = []
        for step in (0.0, 0.01, 0.02, 0.03, 0.01, 0.06):
            now[0] += step
            writer.append(wal.WAL_FEED, b"x")
            sizes.append(wal_bytes(tmp_path))
        # the first append, the one 0.06 s after it, and the one
        # 0.07 s after that
        assert synced == [sizes[0], sizes[3], sizes[5]]
        writer.append(wal.WAL_FEED, b"tail")
        now[0] += 3600.0  # a quiet spell
        assert writer.fsyncs == 3
        assert synced[-1] < wal_bytes(tmp_path)
        writer.close()
        assert synced[-1] == wal_bytes(tmp_path)
        assert writer.fsyncs == 4

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = wal.WalWriter(tmp_path, fsync="off")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(StoreError):
            writer.append(wal.WAL_FEED, b"late")

    def test_stats_counters(self, tmp_path):
        writer = wal.WalWriter(tmp_path, fsync="off")
        writer.append(wal.WAL_FEED, b"abc")
        stats = writer.stats()
        assert stats["appends"] == 1
        assert stats["bytes_appended"] == wal.RECORD_OVERHEAD_BYTES + 3
        assert stats["next_lsn"] == 2
        writer.close()
