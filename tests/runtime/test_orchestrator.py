"""Tests for orchestration results and failure collection."""

from __future__ import annotations

import pytest

from repro.runtime.orchestrator import TaskFailure, orchestrate


def _double(x: int) -> int:
    return 2 * x


def _fail_odd(x: int) -> int:
    if x % 2:
        raise ValueError(f"odd {x}")
    return x


class TestOrchestrate:
    def test_results_and_record(self):
        assert orchestrate(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_exception_aborts_and_records(self):
        with pytest.raises(ValueError):
            orchestrate(_fail_odd, [0, 1, 2], jobs=1)

    def test_collect_errors(self):
        results = orchestrate(
            _fail_odd, [0, 1, 2, 3], jobs=1, collect_errors=True
        )
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], TaskFailure)
        assert results[1].index == 1
        assert results[1].error_type == "ValueError"
        assert isinstance(results[3], TaskFailure)
        assert results[3].index == 3
