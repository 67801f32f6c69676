"""Tests for Step 2 (gain argmax) and the end-to-end MessageSelector."""

from __future__ import annotations

import pytest

from repro.core.coverage import visible_states
from repro.core.flow import Flow, Transition
from repro.core.interleave import interleave, interleave_flows
from repro.core.message import Message
from repro.errors import SelectionError
from repro.selection.combinations import feasible_combinations
from repro.selection.selector import (
    MessageSelector,
    SelectionResult,
    _inverted_names,
    select_messages,
)
from repro.soc.t2.scenarios import scenario, usage_scenarios
from tests.backends import needs_numpy, route


@pytest.fixture
def selector(cc_interleaved) -> MessageSelector:
    return MessageSelector(cc_interleaved, buffer_width=2)


class TestToyExampleSelection:
    def test_exhaustive_reaches_paper_gain(self, selector):
        result = selector.select(method="exhaustive", packing=False)
        assert result.gain == pytest.approx(1.073, abs=5e-4)
        assert result.total_width == 2
        assert result.utilization == 1.0
        # the argmax is tied in the paper's metric; coverage tie-break
        # keeps only the two combinations with coverage 11/15
        assert result.coverage == pytest.approx(11 / 15)

    def test_knapsack_matches_exhaustive_gain(self, selector):
        exhaustive = selector.select(method="exhaustive", packing=False)
        knapsack = selector.select(method="knapsack", packing=False)
        assert knapsack.gain == pytest.approx(exhaustive.gain)
        assert knapsack.total_width == exhaustive.total_width

    def test_result_describe(self, selector):
        text = selector.select(packing=False).describe()
        assert "gain=" in text and "utilization=" in text


class TestSelectorGuards:
    def test_bad_buffer_width(self, cc_interleaved):
        with pytest.raises(SelectionError, match="positive"):
            MessageSelector(cc_interleaved, buffer_width=0)

    def test_unknown_method(self, selector):
        with pytest.raises(SelectionError, match="unknown selection method"):
            selector.select(method="magic")

    def test_nothing_fits(self, branching_flow):
        u = interleave_flows([branching_flow])
        # narrowest message of the branching flow is 1 bit; a 0-bit
        # buffer is rejected earlier, so use a flow of wide messages
        wide = Flow(
            "wide",
            ["a", "b"],
            ["a"],
            ["b"],
            [Transition("a", Message("huge", 64), "b")],
        )
        u = interleave_flows([wide])
        with pytest.raises(SelectionError, match="no message fits"):
            MessageSelector(u, buffer_width=8).select(method="exhaustive")

    def test_knapsack_nothing_fits(self):
        wide = Flow(
            "wide",
            ["a", "b"],
            ["a"],
            ["b"],
            [Transition("a", Message("huge", 64), "b")],
        )
        u = interleave_flows([wide])
        with pytest.raises(SelectionError, match="no message fits"):
            MessageSelector(u, buffer_width=8).select(method="knapsack")


class TestHeterogeneousSelection:
    def test_wider_messages_respected(self, cc_flow, branching_flow):
        u = interleave_flows([branching_flow])
        selector = MessageSelector(u, buffer_width=5)
        result = selector.select(method="exhaustive", packing=False)
        assert result.total_width <= 5
        knap = selector.select(method="knapsack", packing=False)
        assert knap.gain == pytest.approx(result.gain)

    @pytest.mark.parametrize("buffer_width", [1, 2, 3, 4, 6, 10])
    def test_knapsack_equals_exhaustive_all_widths(
        self, branching_flow, buffer_width
    ):
        u = interleave_flows([branching_flow], copies=2)
        selector = MessageSelector(u, buffer_width=buffer_width)
        exhaustive = selector.select(method="exhaustive", packing=False)
        knapsack = selector.select(method="knapsack", packing=False)
        assert knapsack.gain == pytest.approx(exhaustive.gain), buffer_width

    def test_gain_weakly_increases_with_buffer(self, cc_flow, branching_flow):
        u = interleave_flows([cc_flow, branching_flow])
        gains = []
        for w in range(1, 14):
            gains.append(
                MessageSelector(u, buffer_width=w)
                .select(method="knapsack", packing=False)
                .gain
            )
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


class TestEvaluateAndWrapper:
    def test_evaluate_returns_gain_and_coverage(self, cc_flow, selector):
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        gain, coverage = selector.evaluate([req, gnt])
        assert gain == pytest.approx(1.073, abs=5e-4)
        assert coverage == pytest.approx(11 / 15)

    def test_select_messages_wrapper(self, cc_interleaved):
        result = select_messages(cc_interleaved, buffer_width=2, packing=False)
        assert isinstance(result, SelectionResult)
        assert result.buffer_width == 2

    def test_traced_property_without_packing(self, selector):
        result = selector.select(packing=False)
        assert result.traced == result.combination
        assert result.packed == ()


def _reference_exhaustive(selector):
    """The pre-interning Steps 1+2: score every feasible combination,
    computing coverage with a full transition scan per combination."""
    interleaved = selector.interleaved
    parents = {m.name: m for m in interleaved.messages}
    best, best_key = None, (-1.0, -1.0, -1, ())
    for combo in feasible_combinations(
        selector._candidate_pool(), selector.buffer_width
    ):
        expanded = [
            parents.get(m.parent, m) if m.parent is not None else m
            for m in combo
        ]
        coverage = (
            len(visible_states(interleaved, expanded))
            / interleaved.num_states
        )
        key = (
            selector.model.gain(combo),
            coverage,
            combo.total_width,
            _inverted_names(combo),
        )
        if key > best_key:
            best, best_key = combo, key
    return best, best_key[0]


class TestReferenceScan:
    @pytest.mark.parametrize(
        "number, instances", [(1, 1), (2, 1), (1, 2), (2, 2)]
    )
    def test_fast_path_matches_transition_scan(self, number, instances):
        interleaved = scenario(number, instances=instances).interleaved()
        selector = MessageSelector(interleaved, buffer_width=32)
        combination, gain = _reference_exhaustive(selector)
        result = selector.select(method="exhaustive", packing=False)
        assert result.combination == combination
        assert result.gain == gain  # bit-identical, not approx


@needs_numpy
@pytest.mark.parametrize("number, instances", [(1, 1), (2, 2), (3, 2)])
def test_served_selection_agrees_across_routes(number, instances):
    """The selections ``repro serve`` serves come out bit for bit the
    same when Steps 1-2 set up on either route."""
    served = usage_scenarios(instances=instances)[number]
    bundles = []
    for name in ("numpy", "python"):
        with route(name):
            # a fresh product: it keeps the visibility bitsets it built
            selector = MessageSelector(
                interleave(served.instances()),
                buffer_width=32,
                subgroups=served.subgroup_pool,
            )
            result = selector.select(method="exhaustive", packing=True)
        bundles.append(
            (result.traced, result.gain.hex(), result.coverage.hex())
        )
    assert bundles[0] == bundles[1]
