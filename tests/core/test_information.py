"""Tests for the mutual-information-gain metric (Section 3.2).

The worked example of the paper is the oracle: over the two-instance
interleaving of the cache-coherence flow, ``I(X; {ReqE, GntE}) =
(2/3) ln 5 = 1.073``.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import information
from repro.core.flow import Flow
from repro.core.indexing import index_flows
from repro.core.information import InformationModel, mutual_information_gain
from repro.core.interleave import interleave
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.soc.t2.scenarios import usage_scenarios
from tests.backends import ROUTES, needs_numpy, route
from tests.strategies import dag_scenarios, scenarios


@pytest.fixture
def model(cc_interleaved) -> InformationModel:
    return InformationModel(cc_interleaved)


class TestPaperExample:
    def test_marginals(self, cc_flow, model):
        # p(y) = 3/18 for every indexed message of the example
        req = cc_flow.message_by_name("ReqE")
        assert model.marginal(IndexedMessage(req, 1)) == pytest.approx(3 / 18)
        assert model.occurrences(IndexedMessage(req, 2)) == 3

    def test_gain_req_gnt_is_1_073(self, cc_flow, model):
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        gain = model.gain(MessageCombination([req, gnt]))
        assert gain == pytest.approx((2 / 3) * math.log(5), rel=1e-12)
        assert round(gain, 3) == 1.073

    def test_gain_is_argmax_over_two_message_combos(self, cc_flow, model):
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        ack = cc_flow.message_by_name("Ack")
        best = max(
            model.gain(MessageCombination(pair))
            for pair in ([req, gnt], [req, ack], [gnt, ack])
        )
        assert model.gain(MessageCombination([req, gnt])) == pytest.approx(best)

    def test_all_contributions_equal_by_symmetry(self, cc_flow, model):
        # every indexed message has 3 occurrences, each reaching a
        # distinct state, so all six contributions are identical
        contributions = {
            model.contribution(IndexedMessage(m, i))
            for m in cc_flow.messages
            for i in (1, 2)
        }
        assert len(contributions) == 1
        (value,) = contributions
        assert value == pytest.approx(math.log(5) / 6)


class TestAdditivity:
    """The decomposition that makes the knapsack formulation exact."""

    def test_gain_is_sum_of_message_contributions(self, cc_flow, model):
        msgs = list(cc_flow.messages)
        combo = MessageCombination(msgs)
        assert model.gain(combo) == pytest.approx(
            sum(model.message_contribution(m) for m in msgs)
        )

    def test_message_contribution_sums_indexed(self, cc_flow, model):
        req = cc_flow.message_by_name("ReqE")
        assert model.message_contribution(req) == pytest.approx(
            model.contribution(IndexedMessage(req, 1))
            + model.contribution(IndexedMessage(req, 2))
        )

    def test_duplicates_do_not_double_count(self, cc_flow, model):
        req = cc_flow.message_by_name("ReqE")
        assert model.gain([req, req]) == pytest.approx(model.gain([req]))


class TestEdgeCases:
    def test_unknown_message_contributes_zero(self, model):
        foreign = Message("not-in-flow", 4)
        assert model.message_contribution(foreign) == 0.0
        assert model.gain([foreign]) == 0.0

    def test_empty_combination_zero_gain(self, model):
        assert model.gain(MessageCombination()) == 0.0

    def test_gain_monotone_under_superset(self, cc_flow, model):
        # contributions are non-negative, so gain grows with the set
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        assert model.gain([req, gnt]) >= model.gain([req])

    def test_ranked_messages_sorted(self, model):
        ranked = model.ranked_messages()
        gains = [g for _, g in ranked]
        assert gains == sorted(gains, reverse=True)
        assert len(ranked) == 3

    def test_convenience_wrapper(self, cc_flow, cc_interleaved):
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        assert mutual_information_gain(
            cc_interleaved, [req, gnt]
        ) == pytest.approx((2 / 3) * math.log(5))

    def test_contributions_nonnegative(self, cc_flow, model):
        # ln(|S| * n(x,y) / n(y)) >= 0 whenever n(x,y) <= n(y) <= |S|;
        # holds for every DAG-shaped interleaving we build
        for m in cc_flow.messages:
            for i in (1, 2):
                assert model.contribution(IndexedMessage(m, i)) >= 0.0


class TestCrossProcessDeterminism:
    def test_gain_independent_of_hash_seed(self):
        """The gain sum must not follow set iteration order: string
        hash randomization reorders sets per process, and a reordered
        float sum can differ in the last ulp -- enough to flip rank
        ties in fig5 and break byte-identical reproduction."""
        import os
        import subprocess
        import sys

        import repro

        code = (
            "from repro.core.interleave import interleave_flows;"
            "from repro.core.information import InformationModel;"
            "from repro.examples_builtin import toy_cache_coherence_flow;"
            "f = toy_cache_coherence_flow();"
            "u = interleave_flows([f], copies=2);"
            "g = InformationModel(u).gain(f.messages);"
            "print(repr(g), end='')"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        values = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2", "33")
        }
        assert len(values) == 1


# ----------------------------------------------------------------------
# the array route against the loop
# ----------------------------------------------------------------------
def model_tables(interleaved, name):
    """The model's ``n(y)`` and ``c(y).hex()`` per indexed message, in
    its key order, built on route *name*."""
    with route(name):
        model = InformationModel(interleaved)
    return (
        list(model._occurrences.items()),
        [(y, c.hex()) for y, c in model._contribution.items()],
    )


@needs_numpy
@pytest.mark.parametrize(
    "number, instances", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]
)
def test_t2_models_agree_across_routes(number, instances):
    interleaved = usage_scenarios(instances=instances)[number].interleaved()
    assert model_tables(interleaved, "numpy") == model_tables(
        interleaved, "python"
    )


@needs_numpy
def test_paper_example_agrees_across_routes(cc_interleaved):
    assert model_tables(cc_interleaved, "numpy") == model_tables(
        cc_interleaved, "python"
    )


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(st.one_of(scenarios(), dag_scenarios()))
def test_random_models_agree_across_routes(interleaved):
    # the DAG flows re-join, so n(x, y) > 1 and several ratios occur
    assume(interleaved.num_transitions > 0)
    assert model_tables(interleaved, "numpy") == model_tables(
        interleaved, "python"
    )


def test_each_sum_runs_in_first_encounter_order():
    # one message whose targets first appear as 1, 2, 4, 5, 3: summed
    # in ascending-ID order its contribution differs in the last bit
    m = Message("m", 4)
    states = [f"s{i}" for i in range(6)]
    successors = {0: (1, 2, 4, 5), 1: (2, 3, 4, 5), 2: (4, 5), 3: (4, 5),
                  4: (5,)}
    flow = Flow(
        "F", states, ["s0"], ["s5"],
        [(states[i], m, states[j]) for i, js in successors.items()
         for j in js],
    )
    interleaved = interleave(index_flows([flow]))
    (target_ids,) = interleaved.edge_target_ids().values()
    counts = Counter(target_ids)
    num_states = interleaved.num_states
    total = interleaved.num_transitions

    def summed(order):
        c = 0.0
        for target in order:
            c += counts[target] / total * math.log(
                num_states * counts[target] / len(target_ids)
            )
        return c

    assert summed(counts) != summed(sorted(counts))
    expected = [(IndexedMessage(m, 1), summed(counts).hex())]
    for name in ROUTES:
        assert model_tables(interleaved, name)[1] == expected


@needs_numpy
def test_float_bound_hands_over_to_the_loop(monkeypatch, cc_interleaved):
    expected = model_tables(cc_interleaved, "python")
    bound = cc_interleaved.num_states * cc_interleaved.num_transitions
    ran = []
    array_route = information._contributions_numpy
    monkeypatch.setattr(
        information,
        "_contributions_numpy",
        lambda interleaved: ran.append(1) or array_route(interleaved),
    )
    monkeypatch.setattr(information, "_FLOAT_EXACT", bound + 1)
    assert model_tables(cc_interleaved, "numpy") == expected
    assert ran == [1]
    monkeypatch.setattr(information, "_FLOAT_EXACT", bound)
    assert model_tables(cc_interleaved, "numpy") == expected
    assert ran == [1]
