"""Tests for the :mod:`repro.perf` stage counters."""

from __future__ import annotations

import json
import threading

from repro import perf


class TestPerfCounters:
    def test_add_and_get(self):
        counters = perf.PerfCounters()
        counters.add("x")
        counters.add("x", 4)
        assert counters.get("x") == 5
        assert counters.get("missing") == 0

    def test_observe_sums_repeated_stages(self):
        counters = perf.PerfCounters()
        counters.observe("stage", 0.25)
        counters.observe("stage", 0.25)
        stage = counters.as_dict()["histograms"]["stage"]
        assert (stage["count"], stage["sum_s"]) == (2, 0.5)

    def test_as_dict_is_json_serializable(self):
        counters = perf.PerfCounters()
        counters.add("b", 2)
        counters.add("a", 1)
        counters.observe("t", 0.1)
        payload = json.loads(json.dumps(counters.as_dict()))
        assert list(payload) == ["counters", "histograms"]
        assert payload["counters"] == {"a": 1, "b": 2}
        assert payload["histograms"]["t"]["sum_s"] == 0.1

    def test_format_lists_all_entries(self):
        counters = perf.PerfCounters()
        counters.add("events", 1234)
        counters.observe("stage", 1.5)
        text = counters.format()
        assert "events" in text
        assert "1,234" in text
        assert "stage" in text
        assert "1.5000s" in text


class TestCollection:
    def test_noop_when_inactive(self):
        assert not perf.enabled()
        perf.add("ignored")  # must not raise or record anywhere
        with perf.timed("ignored"):
            pass
        assert not perf.enabled()

    def test_collect_gathers_increments(self):
        with perf.collect() as counters:
            assert perf.enabled()
            perf.add("events", 3)
            with perf.timed("stage"):
                pass
        assert counters.get("events") == 3
        assert counters.as_dict()["histograms"]["stage"]["count"] == 1
        assert not perf.enabled()

    def test_nested_collections_both_see_increments(self):
        with perf.collect() as outer:
            perf.add("events")
            with perf.collect() as inner:
                perf.add("events")
        assert outer.get("events") == 2
        assert inner.get("events") == 1

    def test_instrumented_selection_reports_stages(self):
        from repro.core.flow import linear_flow
        from repro.core.indexing import index_flows
        from repro.core.interleave import interleave
        from repro.core.message import Message
        from repro.selection.selector import select_messages

        flow = linear_flow(
            "F",
            ["s0", "s1", "s2"],
            [Message("a", 4), Message("b", 4)],
        )
        with perf.collect() as counters:
            interleaved = interleave(index_flows([flow, flow]))
            select_messages(interleaved, 8, method="exhaustive")
        assert counters.get("interleave_states_expanded") == (
            interleaved.num_states
        )
        assert counters.get("interleave_transitions") == (
            interleaved.num_transitions
        )
        assert counters.get("combinations_scored") > 0
        assert counters.get("coverage_queries") > 0
        stages = counters.as_dict()["histograms"]
        assert "interleave" in stages
        assert "select_exhaustive" in stages


class TestThreadSafety:
    def test_a_collection_sees_only_its_own_threads_increments(self):
        # the active set is per thread: a server's collector counts
        # the work of its own loop and no other thread's
        enabled_elsewhere = []

        def elsewhere():
            enabled_elsewhere.append(perf.enabled())
            perf.add("events")

        with perf.collect() as counters:
            other = threading.Thread(target=elsewhere)
            other.start()
            other.join(timeout=30)
            perf.add("events", 2)
        assert not other.is_alive()
        assert enabled_elsewhere == [False]
        assert counters.get("events") == 2

    def test_deactivate_matches_by_identity(self):
        # two empty collectors hold the same (empty) metrics; only the
        # given one leaves
        first = perf.activate(perf.PerfCounters())
        second = perf.activate(perf.PerfCounters())
        assert first.as_dict() == second.as_dict()
        perf.deactivate(first)
        perf.add("events")
        perf.deactivate(second)
        assert (first.get("events"), second.get("events")) == (0, 1)

