"""``interleave()`` against the literal Definition-5 oracle.

:func:`repro.core.interleave.interleave` builds the product on integer
state codes and keeps only flat tables; every public view is decoded
from them.  These tests compare each view -- object-level and integer
-level, including order -- with :mod:`tests.core.reference_product`,
a plain object BFS that shares no code with it, on random linear and
branching scenarios and on the T2 usage scenarios.  The product and
its stop-path counts each have a numpy route and an exact pure-Python
route; the tests check that both lay out the same tables and counts,
that each bound hands over to the exact route, and what the product
costs to build, keep and pickle.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flow import Flow
from repro.core.indexing import index_flows
from repro.core.interleave import interleave
from repro.core.message import Message
from repro.errors import InterleavingError
from repro.selection.selector import MessageSelector
from repro.soc.t2.scenarios import usage_scenarios
from tests.backends import ROUTES, needs_numpy, route
from tests.core.reference_product import reference_product
from tests.strategies import dag_scenarios, scenarios

# the package exports the function under the module's name
interleave_module = importlib.import_module("repro.core.interleave")


def rebuilt(product, name):
    """A fresh product over *product*'s components, on route *name*."""
    with route(name):
        return interleave(product.components)


def stop_paths(product, state_id):
    """Paths from *state_id* to a stop state, walked one at a time."""
    offsets, _, targets = product.csr_adjacency()
    count = 0
    stack = [state_id]
    while stack:
        sid = stack.pop()
        count += sid in product.stop_ids
        stack.extend(targets[offsets[sid]:offsets[sid + 1]])
    return count


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
    # the per-message grouping: keys in first-encounter order, each
    # message's targets in edge order with multiplicity
    by_message = {}
    for _, message, target in edges:
        by_message.setdefault(message, []).append(state_ids[target])
    assert list(product.edge_target_ids().items()) == list(by_message.items())


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_random_scenarios_match_reference(product):
    assert_matches_reference(product)
    assert_matches_reference(pickle.loads(pickle.dumps(product)))


@settings(max_examples=60, deadline=None)
@given(dag_scenarios())
def test_branching_scenarios_match_reference(product):
    for name in ROUTES:
        assert_matches_reference(rebuilt(product, name))


@pytest.mark.parametrize(
    "number, instances", [(1, 1), (2, 1), (3, 1), (2, 2)]
)
def test_t2_scenarios_match_reference(number, instances):
    sc = usage_scenarios(instances=instances)[number]
    assert_matches_reference(interleave(sc.instances()))


@settings(max_examples=40, deadline=None)
@given(st.one_of(scenarios(), dag_scenarios()))
def test_routes_lay_out_identical_tables(product):
    layouts = {
        pickle.dumps(rebuilt(product, name).__getstate__())
        for name in ROUTES
    }
    assert len(layouts) == 1


@needs_numpy
@pytest.mark.parametrize(
    "number, instances", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]
)
def test_t2_routes_are_byte_identical(number, instances):
    components = usage_scenarios(instances=instances)[number].instances()
    products = {}
    for name in ROUTES:
        with route(name):
            products[name] = interleave(components)
    numpy, python = products["numpy"], products["python"]
    assert pickle.dumps(numpy.__getstate__()) == pickle.dumps(
        python.__getstate__()
    )
    with route("python"):
        expected = python.paths_to_stop_ids()
    assert numpy.paths_to_stop_ids() == expected
    # the level schedule serves the counts: no Kahn loop on numpy
    assert numpy._topological_ids is None


@settings(max_examples=40, deadline=None)
@given(dag_scenarios())
def test_paths_to_stop_match_enumeration(product):
    expected = [stop_paths(product, sid) for sid in range(product.num_states)]
    for name in ROUTES:
        fresh = rebuilt(product, name)
        with route(name):
            assert list(fresh.paths_to_stop_ids()) == expected
        assert fresh.count_paths() == sum(
            expected[sid] for sid in fresh.initial_ids
        )


def test_edgeless_product():
    """One state, no transitions: ``Flow`` allows it, and both routes
    build the one-state product with one path."""
    lone = Flow("Lone", ["s"], ["s"], ["s"], [])
    for name in ROUTES:
        with route(name):
            product = interleave(index_flows([lone, lone]))
            assert product.num_states == 1
            assert product.num_transitions == 0
            assert product.indexed_messages == ()
            assert list(product.csr_adjacency()[0]) == [0, 0]
            assert list(product.paths_to_stop_ids()) == [1]


def test_edgeless_product_accepts_only_the_empty_run():
    """With no message IDs the automaton never leaves state 0: the
    one-state automaton accepts the empty path, a larger one none."""
    lone = Flow("Lone", ["s"], ["s"], ["s"], [])
    for name in ROUTES:
        with route(name):
            product = interleave(index_flows([lone, lone]))
            assert list(map(list, product.height_levels())) == [[0]]
            assert product.accepted_ids([], 1) == [1]
            assert product.accepted_ids([], 3) == [0]


@settings(max_examples=40, deadline=None)
@given(st.one_of(scenarios(), dag_scenarios()))
def test_routes_lay_out_the_same_height_levels(product):
    layouts = set()
    for name in ROUTES:
        fresh = rebuilt(product, name)
        with route(name):
            levels = [list(map(int, level)) for level in fresh.height_levels()]
        layouts.add(repr(levels))
        # every edge runs from a higher level to a lower one
        height = {sid: h for h, level in enumerate(levels) for sid in level}
        offsets, _, targets = fresh.csr_adjacency()
        for sid in range(fresh.num_states):
            for target in targets[offsets[sid]:offsets[sid + 1]]:
                assert height[target] < height[sid]
    assert len(layouts) == 1


@needs_numpy
def test_key_bound_hands_over_to_exact_route(monkeypatch):
    components = usage_scenarios(instances=2)[2].instances()
    expected = pickle.dumps(interleave(components).__getstate__())

    def refuse(*_):
        raise AssertionError("the array route ran above the key bound")

    monkeypatch.setattr(interleave_module, "_KEY_BOUND", 1)
    monkeypatch.setattr(interleave_module, "_product_numpy", refuse)
    assert pickle.dumps(interleave(components).__getstate__()) == expected


@needs_numpy
def test_count_bound_hands_over_to_exact_route(monkeypatch):
    components = usage_scenarios(instances=2)[2].instances()
    expected = interleave(components).paths_to_stop_ids()
    # below both bounds the float64 pass would be kept as exact
    monkeypatch.setattr(interleave_module, "_FLOAT_EXACT", 1.0)
    monkeypatch.setattr(interleave_module, "_COUNT_BOUND", 1.0)
    product = interleave(components)
    assert product.paths_to_stop_ids() == expected
    # the exact DP ran, on the topological order
    assert product._topological_ids is not None


def diamond_chain(length):
    """*length* diamonds in series: ``2**length`` paths."""
    up, down, join = Message("up", 1), Message("down", 1), Message("join", 1)
    states, transitions = ["s0"], []
    for i in range(length):
        here, a, b, there = f"s{i}", f"a{i}", f"b{i}", f"s{i + 1}"
        states += [a, b, there]
        transitions += [
            (here, up, a), (here, down, b), (a, join, there), (b, join, there)
        ]
    return Flow("Diamonds", states, ["s0"], [states[-1]], transitions)


@needs_numpy
@pytest.mark.parametrize("length", (52, 53, 54))
def test_float_pass_is_kept_only_below_2_to_the_53(monkeypatch, length):
    """Below 2^53 paths the float64 bound pass is exact and is kept; from
    2^53 on an int64 pass recounts.  Both agree with the big-int route."""
    components = index_flows([diamond_chain(length)])
    with route("python"):
        expected = interleave(components).paths_to_stop_ids()
    passes = []
    level_counts = interleave_module.InterleavedFlow._level_counts

    def spy(self, step, states, dtype):
        passes.append(dtype.__name__)
        return level_counts(self, step, states, dtype)

    monkeypatch.setattr(
        interleave_module.InterleavedFlow, "_level_counts", spy
    )
    product = interleave(components)
    counts = product.paths_to_stop_ids()
    assert counts.typecode == expected.typecode == "q"
    assert counts == expected
    assert product.count_paths() == 2**length
    assert passes == ["float64"] + ["int64"] * (length >= 53)


@pytest.mark.parametrize("name", ROUTES)
def test_count_beyond_int64_is_exact(name):
    with route(name):
        product = interleave(index_flows([diamond_chain(64)]))
        assert product.count_paths() == 2**64
    assert all(isinstance(n, int) for n in product.paths_to_stop_ids())


@pytest.mark.parametrize("name", ROUTES)
def test_cyclic_csr_is_refused(name, cc_interleaved):
    """A CSR with a cycle cannot come from ``interleave()``; both path
    count routes refuse it instead of returning partial counts."""
    state = list(cc_interleaved.__getstate__())
    offsets = state[5]
    # point the first state's first edge back at itself
    targets = state[7].__copy__()
    targets[offsets[0]] = 0
    state[7] = targets
    looped = object.__new__(type(cc_interleaved))
    looped.__setstate__(tuple(state))
    with route(name):
        with pytest.raises(InterleavingError, match="not a DAG"):
            looped.paths_to_stop_ids()


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
    a pickle round trip: at most 8 pickled bytes and 16 traced heap
    bytes per edge (measured 4.3 and 11.5 with every table in its
    narrowest width; int64 CSR buffers would read 19 and 53)."""
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
    assert len(blob) / edges <= 8
    assert heap / edges <= 16


@pytest.mark.parametrize("name", ROUTES)
def test_sc2x2_build_peak_per_edge(name):
    """Peak traced heap bytes per edge while ``interleave()`` builds
    sc2x2 (17,400 edges): the array route's temporaries stay well
    below the pure-Python route's sets and lists (measured 62 and 147
    B/edge on CPython 3.11)."""
    components = usage_scenarios(instances=2)[2].instances()
    gc.collect()
    with route(name):
        tracemalloc.start()
        try:
            product = interleave(components)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert product.num_transitions == 17400
    assert peak / 17400 <= {"numpy": 80, "python": 180}[name]
