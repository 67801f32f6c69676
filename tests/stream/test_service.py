"""Tests for the synthetic session captures and the percentile helper
the serving reports share."""

from __future__ import annotations

from repro.selection.localization import PathLocalizer
from repro.stream.service import synthetic_session_records
from repro.stream.workload import percentile


class TestHelpers:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.95) == 95.0
        assert percentile([3.0], 0.95) == 3.0
        assert percentile([], 0.95) == 0.0

    def test_synthetic_records_are_visible_only(
        self, cc_interleaved, traced
    ):
        records = synthetic_session_records(cc_interleaved, traced, seed=4)
        localizer = PathLocalizer(cc_interleaved, traced)
        assert records
        assert all(localizer.is_visible(r.message) for r in records)
