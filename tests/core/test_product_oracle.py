"""``interleave()`` against the literal Definition-5 oracle.

:func:`repro.core.interleave.interleave` builds the product on integer
state codes and keeps only flat tables; every public view is decoded
from them.  These tests compare each view -- object-level and integer
-level, including order -- with :mod:`tests.core.reference_product`,
a plain object BFS that shares no code with it, on random scenarios
and on the T2 usage scenarios.  They also pin what the product costs
to keep and to pickle.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings

from repro.core.interleave import interleave
from repro.errors import InterleavingError
from repro.selection.selector import MessageSelector
from repro.soc.t2.scenarios import usage_scenarios
from tests.core.reference_product import reference_product
from tests.strategies import scenarios


def assert_matches_reference(product) -> None:
    states, initial, stop, edges = reference_product(product.components)
    table = sorted(states)
    messages = tuple(sorted({message for _, message, _ in edges}))
    state_ids = {state: i for i, state in enumerate(table)}
    message_ids = {message: i for i, message in enumerate(messages)}

    assert product.states == states
    assert product.initial == initial
    assert product.stop == stop
    assert tuple(
        (t.source, t.message, t.target) for t in product.transitions
    ) == edges
    assert product.num_states == len(table)
    assert product.num_transitions == len(edges)
    for i, state in enumerate(table):
        assert product.state_at(i) == state
        assert product.state_id(state) == i
    assert product.indexed_messages == messages
    assert product.initial_ids == tuple(sorted(state_ids[s] for s in initial))
    assert product.stop_ids == frozenset(state_ids[s] for s in stop)

    degree = [0] * len(table)
    for source, _, _ in edges:
        degree[state_ids[source]] += 1
    offsets, msg_ids, targets = product.csr_adjacency()
    assert list(offsets) == [0, *itertools.accumulate(degree)]
    assert list(msg_ids) == [message_ids[m] for _, m, _ in edges]
    assert list(targets) == [state_ids[t] for _, _, t in edges]
    assert list(product.edge_target_ids()) == list(
        dict.fromkeys(m for _, m, _ in edges)
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_random_scenarios_match_reference(product):
    assert_matches_reference(product)
    assert_matches_reference(pickle.loads(pickle.dumps(product)))


@pytest.mark.parametrize(
    "number, instances", [(1, 1), (2, 1), (3, 1), (2, 2)]
)
def test_t2_scenarios_match_reference(number, instances):
    sc = usage_scenarios(instances=instances)[number]
    assert_matches_reference(interleave(sc.instances()))


def test_pickle_holds_no_lazy_view(cc_interleaved):
    before = pickle.dumps(cc_interleaved)
    # build every cached view, then pickle again
    cc_interleaved.transitions
    cc_interleaved.paths_to_stop()
    cc_interleaved.visibility_index()
    cc_interleaved.outgoing(next(iter(cc_interleaved.initial)))
    assert pickle.dumps(cc_interleaved) == before


def test_untagged_state_is_refused(cc_interleaved):
    restored = object.__new__(type(cc_interleaved))
    with pytest.raises(InterleavingError):
        restored.__setstate__({"states": cc_interleaved.states})
    with pytest.raises(InterleavingError):
        restored.__setstate__(("some-other-layout",) + (None,) * 9)


def test_views_are_read_only(cc_interleaved):
    for name in ("states", "initial", "stop", "transitions", "components"):
        with pytest.raises(AttributeError):
            setattr(cc_interleaved, name, ())


def test_unknown_state_has_no_id(cc_interleaved):
    state = next(iter(cc_interleaved.states))
    for foreign in (state[:-1], state + state[:1], "x", state[::-1]):
        assert cc_interleaved.outgoing(foreign) == ()
        with pytest.raises(KeyError):
            cc_interleaved.state_id(foreign)


def test_sc2x2_footprint_per_edge():
    """The sc2x2 product (17,400 edges) after interleave, Steps 1-3 and
    a pickle round trip: at most 32 pickled bytes and 120 traced heap
    bytes per edge (the object-graph layout took 51.7 and 332)."""
    sc = usage_scenarios(instances=2)[2]
    instances = sc.instances()
    gc.collect()
    tracemalloc.start()
    try:
        product = interleave(instances)
        selector = MessageSelector(product, 32, subgroups=sc.subgroup_pool)
        selector.select(method="exhaustive", packing=True)
        blob = pickle.dumps(product)
        assert pickle.loads(blob).num_transitions == product.num_transitions
        gc.collect()
        heap, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = product.num_transitions
    assert edges == 17400
    assert len(blob) / edges <= 32
    assert heap / edges <= 120
