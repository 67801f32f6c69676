"""CompressedTraceBuffer: encoded capture, whole-frame eviction, and
the read-back path into the streaming layer."""

from __future__ import annotations

import pytest

from repro import perf
from repro.compress.decoder import IncrementalFrameDecoder, decode_stream
from repro.core.message import IndexedMessage, Message
from repro.sim.engine import TraceRecord
from repro.sim.tracebuffer import CompressedTraceBuffer, TraceBuffer

_CATALOG = {
    "req": Message("req", 8),
    "wide": Message("wide", 42),
    "parent": Message("parent", 16),
    "parent_lo": Message("parent_lo", 4, parent="parent"),
    "other": Message("other", 5),
}


def _rec(name, cycle, value, index=0):
    return TraceRecord(
        cycle=cycle,
        message=IndexedMessage(_CATALOG[name], index),
        value=value,
    )


class TestCompressedCapture:
    def test_wide_message_fits_narrow_buffer(self):
        # a 42-bit message can never enter a 32-bit uncompressed entry
        with pytest.raises(Exception):
            TraceBuffer(32, 64, [_CATALOG["wide"]])
        buffer = CompressedTraceBuffer(32, 64, [_CATALOG["wide"]])
        kept = buffer.capture(
            [_rec("wide", 10 * i, (1 << 42) - 1 - i) for i in range(4)]
        )
        assert len(kept) == 4
        assert all(entry.value >> 32 for entry in kept)

    def test_untraced_messages_filtered(self):
        buffer = CompressedTraceBuffer(32, 64, [_CATALOG["req"]])
        kept = buffer.capture(
            [_rec("req", 1, 7), _rec("other", 2, 3), _rec("req", 3, 9)]
        )
        assert [e.value for e in kept] == [7, 9]
        assert buffer.visible_count(
            [_rec("req", 1, 7), _rec("other", 2, 3)]
        ) == 1

    def test_subgroup_masking_matches_uncompressed(self):
        traced = [_CATALOG["parent_lo"]]
        records = [_rec("parent", 5, 0xABCD), _rec("parent", 9, 0xFFFF)]
        plain = TraceBuffer(32, 64, traced).capture(records)
        compressed = CompressedTraceBuffer(32, 64, traced).capture(records)
        assert [e.value for e in compressed] == [e.value for e in plain]
        assert all(e.is_partial for e in compressed)

    def test_bitstream_decodes_to_kept_view(self):
        buffer = CompressedTraceBuffer(
            32, 64, [_CATALOG["req"]], scenario="RoundTrip"
        )
        records = [_rec("req", 7 * i, i % 256) for i in range(20)]
        kept = buffer.capture(records)
        result = decode_stream(buffer.last_bitstream, _CATALOG)
        assert result.scenario == "RoundTrip"
        assert [
            (r.cycle, r.value) for r in result.records
        ] == [(e.cycle, e.value) for e in kept]
        assert not result.diagnostics

    def test_stats_without_overflow(self):
        buffer = CompressedTraceBuffer(32, 64, [_CATALOG["req"]])
        buffer.capture([_rec("req", i, i) for i in range(10)])
        stats = buffer.last_stats
        assert stats is not None
        assert not stats.overflowed
        assert stats.captured == 10
        assert stats.evicted == 0
        assert 0 < stats.utilization < 1.0
        assert stats.capacity_bits == 32 * 64


class TestFrameEviction:
    def _overflow_buffer(self):
        buffer = CompressedTraceBuffer(
            16, 40, [_CATALOG["req"]], records_per_frame=4
        )
        records = [_rec("req", 3 * i, i % 256) for i in range(64)]
        kept = buffer.capture(records)
        return buffer, records, kept

    def test_oldest_frames_evicted(self):
        buffer, records, kept = self._overflow_buffer()
        stats = buffer.last_stats
        assert stats.overflowed
        assert stats.evicted_frames > 0
        assert stats.evicted % 4 == 0  # whole frames only
        assert len(kept) == len(records) - stats.evicted
        # the newest records survive
        assert kept[-1].cycle == records[-1].cycle
        assert stats.used_bits <= stats.capacity_bits

    def test_surviving_bitstream_decodes_with_gap(self):
        buffer, _, kept = self._overflow_buffer()
        result = decode_stream(buffer.last_bitstream, _CATALOG)
        assert [(r.cycle, r.value) for r in result.records] == [
            (e.cycle, e.value) for e in kept
        ]
        # the eviction shows up as a sequence gap, not silent loss
        assert any(d.kind == "gap" for d in result.diagnostics)

    def test_eviction_reports_perf_counters(self):
        with perf.collect() as counters:
            self._overflow_buffer()
        assert counters.get("tracebuffer_evictions") > 0
        assert counters.get("tracebuffer_overwritten_bits") > 0
        assert counters.get("tracebuffer_evicted_frames") > 0


class TestIngester:
    def test_chunked_bitstream_reaches_parser(self):
        buffer = CompressedTraceBuffer(
            32, 64, [_CATALOG["req"]], scenario="Ingest", seed=11
        )
        kept = buffer.capture(
            [_rec("req", 5 * i, i % 200) for i in range(12)]
        )
        decoder = IncrementalFrameDecoder(_CATALOG)
        emitted = []
        data = buffer.last_bitstream
        for start in range(0, len(data), 7):
            emitted.extend(decoder.feed(data[start:start + 7]))
        emitted.extend(decoder.close())
        assert [(r.cycle, r.value) for r in emitted] == [
            (e.cycle, e.value) for e in kept
        ]
        assert decoder.header_seen
        assert decoder.scenario == "Ingest"
        assert decoder.records_emitted == len(kept)
