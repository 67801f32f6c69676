"""Tests for incremental trace-file ingestion."""

from __future__ import annotations

import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import TraceRecord, TransactionSimulator
from repro.sim.tracefile import read_trace_file, write_trace_file
from repro.stream.ingest import IncrementalTraceParser


@pytest.fixture
def trace_text(cc_interleaved) -> str:
    trace = TransactionSimulator(cc_interleaved, "Toy").run(seed=3)
    buffer = io.StringIO()
    write_trace_file(buffer, trace.records, scenario='to"y\\run', seed=-3)
    return buffer.getvalue()


def parse_all(parser: IncrementalTraceParser, text: str, step: int):
    records = []
    for i in range(0, len(text), step):
        records.extend(parser.feed(text[i:i + step]))
    records.extend(parser.close())
    return records


class TestChunking:
    @pytest.mark.parametrize("step", [1, 2, 3, 7, 64, 10_000])
    def test_any_chunking_matches_batch(self, trace_text, catalog, step):
        expected, scenario, seed = read_trace_file(
            io.StringIO(trace_text), catalog
        )
        parser = IncrementalTraceParser(catalog)
        records = parse_all(parser, trace_text, step)
        assert tuple(records) == expected
        assert parser.scenario == scenario == 'to"y\\run'
        assert parser.seed == seed == -3
        assert parser.diagnostics == ()

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_chunk_boundaries(self, trace_text, catalog, data):
        # the fixtures are pure inputs; not resetting them per example
        # is exactly what we want
        expected, _, _ = read_trace_file(io.StringIO(trace_text), catalog)
        parser = IncrementalTraceParser(catalog)
        records = []
        i = 0
        while i < len(trace_text):
            j = i + data.draw(st.integers(min_value=1, max_value=40))
            records.extend(parser.feed(trace_text[i:j]))
            i = j
        records.extend(parser.close())
        assert tuple(records) == expected

    def test_partial_line_held_until_complete(self, catalog):
        parser = IncrementalTraceParser(catalog)
        assert parser.feed('# repro-trace v1 scenario="" seed=0\n12 1:R') == ()
        assert parser.feed("eqE 0x1") == ()
        (record,) = parser.feed("\n")
        assert isinstance(record, TraceRecord)
        assert record.cycle == 12 and record.message.name == "1:ReqE"

    def test_close_flushes_unterminated_line(self, catalog):
        parser = IncrementalTraceParser(catalog)
        parser.feed('# repro-trace v1 scenario="" seed=0\n14 2:GntE 0x0')
        (record,) = parser.close()
        assert record.message.name == "2:GntE"
        assert parser.close() == ()  # idempotent

    def test_feed_after_close_rejected(self, catalog):
        parser = IncrementalTraceParser(catalog)
        parser.close()
        with pytest.raises(SimulationError, match="closed"):
            parser.feed("x")


class TestDiagnostics:
    def test_bad_lines_become_diagnostics_not_errors(self, catalog):
        parser = IncrementalTraceParser(catalog)
        records = parser.feed(
            '# repro-trace v1 scenario="ok" seed=1\n'
            "garbage\n"
            "10 1:ReqE 0x1\n"
            "11 1:nosuch 0x2\n"
            "12 1:GntE 0x0\n"
        )
        assert [r.message.name for r in records] == ["1:ReqE", "1:GntE"]
        reasons = [d.reason for d in parser.diagnostics]
        assert len(reasons) == 2
        assert "bad trace line" in reasons[0]
        assert "unknown message" in reasons[1]
        assert [d.lineno for d in parser.diagnostics] == [2, 4]

    def test_bad_header_is_diagnosed_and_parsing_continues(self, catalog):
        parser = IncrementalTraceParser(catalog)
        records = parser.feed("not a header\n10 1:ReqE 0x1\n")
        assert len(records) == 1
        assert not parser.header_seen
        assert "bad trace file header" in parser.diagnostics[0].reason

    def test_blank_and_comment_lines_skipped(self, catalog):
        parser = IncrementalTraceParser(catalog)
        records = parser.feed(
            '# repro-trace v1 scenario="" seed=0\n'
            "\n# a comment\n10 1:ReqE 0x1\n"
        )
        assert len(records) == 1
        assert parser.diagnostics == ()
        assert parser.header_seen

    def test_crlf_tolerated(self, catalog):
        parser = IncrementalTraceParser(catalog)
        records = parser.feed(
            '# repro-trace v1 scenario="" seed=0\r\n10 1:ReqE 0x1\r\n'
        )
        assert len(records) == 1
        assert parser.diagnostics == ()
