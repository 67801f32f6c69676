"""Visibility bitsets vs the set-based coverage reference.

The :class:`repro.core.visibility.VisibilityIndex` fast path must be
*bit-identical* to :func:`repro.core.coverage.visible_states` -- the
exhaustive selection loop trusts the bitsets for its coverage
tie-break.  The property tests here drive both implementations over
randomized flows, interleavings, and combinations (sub-groups
included) and require exact agreement, with the bitsets built on each
route: numpy's packed boolean grid and the pure-Python loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverage import flow_specification_coverage, visible_states
from repro.core.flow import Flow, linear_flow
from repro.core.indexing import index_flows
from repro.core.interleave import interleave
from repro.core.message import Message
from repro.core.visibility import (
    VisibilityIndex,
    index_flow_visibility,
    popcount,
)
from tests.backends import ROUTES, route


# ----------------------------------------------------------------------
# unit tests
# ----------------------------------------------------------------------
class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_known_values(self):
        assert popcount(0b1011) == 3
        assert popcount((1 << 300) | 1) == 2

    def test_matches_bin_count(self):
        for value in (1, 7, 255, 2**64 - 1, 2**200 + 2**100 + 1):
            assert popcount(value) == bin(value).count("1")


class TestVisibilityIndex:
    @pytest.fixture()
    def diamond(self):
        a, b = Message("a", 4), Message("b", 4)
        return Flow(
            name="D",
            states=["s0", "s1", "s2", "s3"],
            initial=["s0"],
            stop=["s3"],
            transitions=[
                ("s0", a, "s1"),
                ("s0", b, "s2"),
                ("s1", b, "s3"),
                ("s2", a, "s3"),
            ],
        )

    def test_bits_match_reference(self, diamond):
        index = diamond.visibility_index()
        for message in diamond.messages:
            assert index.visible_state_set([message]) == visible_states(
                diamond, [message]
            )

    def test_union_is_or_of_singles(self, diamond):
        index = diamond.visibility_index()
        msgs = list(diamond.messages)
        assert index.union_bits(msgs) == (
            index.bits_for(msgs[0]) | index.bits_for(msgs[1])
        )

    def test_unknown_message_covers_nothing(self, diamond):
        index = diamond.visibility_index()
        assert index.bits_for(Message("nope", 1)) == 0
        assert index.coverage([Message("nope", 1)]) == 0.0

    def test_subgroup_lights_parent_edges(self, diamond):
        index = diamond.visibility_index()
        sub = Message("a_lo", 2, parent="a")
        assert index.bits_for(sub) == index.bits_for(Message("a", 4))

    def test_index_is_cached_per_flow(self, diamond):
        assert diamond.visibility_index() is diamond.visibility_index()

    def test_state_set_requires_table(self):
        index = VisibilityIndex(2, {}, {})
        with pytest.raises(ValueError):
            index.visible_state_set([])


# ----------------------------------------------------------------------
# property tests: bitset coverage == set-based reference
# ----------------------------------------------------------------------
@st.composite
def flows_and_combos(draw):
    """A random multi-flow interleaving plus a query combination that
    mixes selected messages, sub-groups, and absent messages."""
    flow_count = draw(st.integers(min_value=1, max_value=3))
    flows = []
    pool = []
    for i in range(flow_count):
        length = draw(st.integers(min_value=1, max_value=4))
        messages = [
            Message(f"f{i}_m{j}", draw(st.integers(min_value=1, max_value=8)))
            for j in range(length)
        ]
        states = [f"f{i}_s{j}" for j in range(length + 1)]
        flows.append(linear_flow(f"f{i}", states, messages))
        pool.extend(messages)
        for message in messages:
            if message.width > 1 and draw(st.booleans()):
                pool.append(
                    Message(
                        f"{message.name}_lo",
                        message.width - 1,
                        parent=message.name,
                    )
                )
    combo = draw(
        st.lists(st.sampled_from(pool), min_size=0, max_size=len(pool))
    )
    if draw(st.booleans()):
        combo.append(Message("absent", 1))
    return flows, combo


@pytest.mark.parametrize("backend", ROUTES)
@settings(max_examples=50, deadline=None)
@given(flows_and_combos())
def test_flow_bitset_equals_reference(backend, case):
    flows, combo = case
    for flow in flows:
        with route(backend):
            index = flow.visibility_index()
        reference = visible_states(flow, combo)
        assert index.visible_state_set(combo) == reference
        assert index.visible_count(combo) == len(reference)
        assert flow_specification_coverage(flow, combo) == (
            len(reference) / flow.num_states
        )


@pytest.mark.parametrize("backend", ROUTES)
@settings(max_examples=25, deadline=None)
@given(flows_and_combos())
def test_interleaved_bitset_equals_reference(backend, case):
    flows, combo = case
    with route(backend):
        interleaved = interleave(index_flows(flows))
        index = interleaved.visibility_index()
    reference = visible_states(interleaved, combo)
    assert index.visible_state_set(combo) == reference
    assert index.visible_count(combo) == len(reference)
    assert flow_specification_coverage(interleaved, combo) == (
        len(reference) / interleaved.num_states
    )


def test_generic_builder_handles_interleaved_labels():
    """index_flow_visibility collapses indexed labels onto the plain
    message, like the reference does."""
    a = Message("a", 2)
    flow = linear_flow("L", ["s0", "s1", "s2"], [a, a])
    interleaved = interleave(index_flows([flow, flow]))
    generic = index_flow_visibility(interleaved)
    assert generic.visible_state_set([a]) == visible_states(
        interleaved, [a]
    )
