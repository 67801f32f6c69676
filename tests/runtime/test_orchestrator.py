"""Tests for orchestration telemetry and failure collection."""

from __future__ import annotations

import pytest

from repro.runtime.cache import ArtifactCache
from repro.runtime.orchestrator import TaskFailure, orchestrate


def _double(x: int) -> int:
    return 2 * x


def _fail_odd(x: int) -> int:
    if x % 2:
        raise ValueError(f"odd {x}")
    return x


class TestOrchestrate:
    def test_results_and_record(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        results, record = orchestrate(
            _double, [1, 2, 3], jobs=1, name="unit", cache=cache
        )
        assert results == [2, 4, 6]
        assert record.name == "unit"
        assert record.tasks_dispatched == 3
        assert record.tasks_completed == 3
        assert record.tasks_failed == 0
        assert record.wall_time_s >= 0.0

    def test_cache_delta_recorded(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")

        def lookup(key):
            return cache.get(key)[1]

        _, record = orchestrate(
            lookup, ["k", "k"], jobs=1, name="lookups", cache=cache
        )
        assert record.cache_hits == 2
        assert record.cache_misses == 0

    def test_exception_aborts_and_records(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        with pytest.raises(ValueError):
            orchestrate(
                _fail_odd, [0, 1, 2], jobs=1, name="abort", cache=cache
            )

    def test_collect_errors(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        results, record = orchestrate(
            _fail_odd, [0, 1, 2, 3], jobs=1, name="collect",
            cache=cache, collect_errors=True,
        )
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], TaskFailure)
        assert results[1].index == 1
        assert results[1].error_type == "ValueError"
        assert record.tasks_failed == 2
        assert record.tasks_completed == 2

