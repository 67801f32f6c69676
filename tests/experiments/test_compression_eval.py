"""The compression evaluation artifact and its acceptance properties."""

from __future__ import annotations

import pytest

from repro.compress.decoder import decode_stream
from repro.compress.encoder import encode_records, uncompressed_capture_bits
from repro.experiments.compression_eval import (
    compression_eval,
    concatenated_stream,
    format_compression_eval,
)
from repro.soc.t2.messages import t2_message_catalog
from repro.soc.t2.scenarios import scenario


@pytest.fixture(scope="module")
def rows():
    return compression_eval()


class TestCompressionEval:
    def test_covers_all_scenarios(self, rows):
        assert [r.scenario for r in rows] == [
            "Scenario 1", "Scenario 2", "Scenario 3"
        ]

    def test_coverage_never_drops_and_strictly_gains(self, rows):
        assert all(r.coverage_delta >= 0 for r in rows)
        assert any(r.coverage_delta > 0 for r in rows)

    def test_worst_case_admissible(self, rows):
        # the guard-band budget holds even at guard band 1.0
        assert all(r.worst_case_admissible for r in rows)
        assert all(r.cost_bits <= r.capacity_bits for r in rows)

    def test_localization_does_not_regress(self, rows):
        assert all(
            r.comp_localization <= r.base_localization for r in rows
        )

    def test_capture_and_ratio(self, rows):
        for r in rows:
            assert 0 < r.capture_utilization <= 1.0
            assert r.ratio >= 1.5
            assert r.comp_traced >= r.base_traced

    def test_format_renders(self, rows):
        text = format_compression_eval(rows=rows)
        assert "Compression evaluation" in text
        assert "guard band" in text
        assert "3/3" in text

    def test_registered_as_artifact(self):
        from repro.experiments.report import (
            ARTIFACT_TITLES,
            _PAPER_NOTES,
        )

        assert "compression" in ARTIFACT_TITLES
        assert ARTIFACT_TITLES["compression"] in _PAPER_NOTES


class TestConcatenatedStream:
    def test_monotone_and_sized(self):
        stream = concatenated_stream(1, runs=5)
        assert stream
        assert all(
            a.cycle <= b.cycle for a, b in zip(stream, stream[1:])
        )

    @pytest.mark.parametrize("number", [1, 2, 3])
    def test_round_trip_is_lossless_and_compresses(self, number):
        # the 50-run stream the ratio is measured on, in 64-record
        # frames: decoding gives back every record, at >= 1.5x
        stream = concatenated_stream(number)
        encoded = encode_records(
            stream, scenario=scenario(number).name, records_per_frame=64
        )
        decoded = decode_stream(
            encoded.data, dict(t2_message_catalog().messages)
        )
        assert tuple(decoded.records) == stream
        assert encoded.ratio_vs(uncompressed_capture_bits(stream)) >= 1.5
