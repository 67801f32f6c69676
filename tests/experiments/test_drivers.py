"""Unit tests for the experiment drivers (fast variants).

The benchmarks assert the paper-shape properties; these tests cover
the drivers' plumbing: row structure, formatting, caching, and the
helpers (table renderer, Spearman correlation).
"""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    BUFFER_WIDTH,
    percent,
    render_table,
    scenario_selection,
    scenario_selections,
)
from repro.experiments.fig5 import _spearman
from repro.experiments.table1 import format_table1, table1
from repro.experiments.table2 import format_table2, table2
from repro.experiments.table4 import PAPER_TABLE4, table4
from repro.experiments.table7 import format_table7, table7


class TestCommon:
    def test_scenario_selection_cached(self):
        a = scenario_selection(1)
        b = scenario_selection(1)
        assert a is b

    def test_scenario_selections_all(self):
        bundles = scenario_selections()
        assert set(bundles) == {1, 2, 3}
        for bundle in bundles.values():
            assert bundle.with_packing.buffer_width == BUFFER_WIDTH
            assert bundle.with_packing.utilization >= \
                bundle.without_packing.utilization

    def test_render_table(self):
        text = render_table(
            ["a", "bb"], [[1, 22], ["x", "y"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[2] == "| a | bb |"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_percent(self):
        assert percent(0.98765) == "98.77%"
        assert percent(0.5, 0) == "50%"


class TestSpearman:
    def test_perfect_positive(self):
        assert _spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert _spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_handled(self):
        value = _spearman([1, 1, 2, 3], [5, 5, 6, 7])
        assert value == pytest.approx(1.0)

    def test_constant_series(self):
        assert _spearman([1, 1, 1], [1, 2, 3]) == 0.0

    def test_matches_scipy_when_available(self):
        # ImportError, not only ModuleNotFoundError: scipy is installed
        # but raises a plain ImportError when numpy cannot be imported
        scipy_stats = pytest.importorskip("scipy.stats", exc_type=ImportError)
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
        ys = [2.0, 7.0, 1.0, 8.0, 2.5, 8.0, 3.0]
        expected = scipy_stats.spearmanr(xs, ys).statistic
        assert _spearman(xs, ys) == pytest.approx(expected)


class TestTableDrivers:
    def test_table1_rows(self):
        rows = table1()
        assert [r.scenario for r in rows] == [
            "Scenario 1", "Scenario 2", "Scenario 3"
        ]
        assert "PIOR(6,5)" in format_table1()

    def test_table2_custom_ids(self):
        rows = table2(bug_ids=(14, 21))
        assert [r.bug_id for r in rows] == [14, 21]
        assert "Mondo" in rows[0].bug_type
        assert "Table 2" in format_table2()

    def test_table4_verdict_keys_match_paper(self):
        result = table4()
        assert set(result.verdicts) == set(PAPER_TABLE4)
        assert set(result.coverage) == {"sigset", "prnet", "infogain"}

    def test_table7_selected_messages(self):
        result = table7()
        assert len(result.causes) == 9
        assert result.selected_messages == tuple(
            sorted(result.selected_messages)
        )
        assert "Selected messages:" in format_table7()
