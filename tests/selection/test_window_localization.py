"""Tests for window-mode (depth-limited buffer) localization."""

from __future__ import annotations

import importlib
import itertools
import random
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.execution import project_trace
from repro.core.indexing import index_flows
from repro.core.interleave import interleave
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.errors import SelectionError
from repro.selection.localization import (
    PathLocalizer,
    _kmp_steps,
    kmp_failure,
)
from tests.core.test_product_oracle import diamond_chain, route
from tests.selection import bruteforce
from tests.strategies import dag_scenarios, scenarios

# the package exports the function under the module's name
interleave_module = importlib.import_module("repro.core.interleave")


@pytest.fixture
def traced(cc_flow) -> MessageCombination:
    return MessageCombination(
        [cc_flow.message_by_name("ReqE"), cc_flow.message_by_name("GntE")]
    )


@pytest.fixture
def localizer(cc_interleaved, traced) -> PathLocalizer:
    return PathLocalizer(cc_interleaved, traced)


def walk(pattern, symbols, alphabet=3):
    """The KMP state the automaton rows of *pattern* reach on
    *symbols* (message IDs below *alphabet*, all traced)."""
    rows = _kmp_steps(pattern, [True] * alphabet)
    state = 0
    for symbol in symbols:
        state = rows[symbol][state]
    return state


def defined_step(pattern, state, symbol):
    """The KMP step by definition: the longest suffix of the matched
    prefix plus *symbol* that is a prefix of *pattern* (the match
    state absorbs)."""
    if state == len(pattern):
        return state
    seen = tuple(pattern[:state]) + (symbol,)
    return max(
        k for k in range(len(seen) + 1)
        if seen[len(seen) - k:] == tuple(pattern[:k])
    )


class TestKmpTransition:
    def test_linear_advance(self):
        assert walk((0, 1, 2), (0, 1, 2)) == 3

    def test_failure_links(self):
        # "aab" inside "aaab": states 0-a->1-a->2-a->2-b->3
        assert walk((0, 0, 1), (0, 0, 0, 1)) == 3

    def test_accept_is_absorbing(self):
        rows = _kmp_steps((0,), [True] * 3)
        assert [row[1] for row in rows] == [1, 1, 1]

    def test_mismatch_resets(self):
        rows = _kmp_steps((0, 1), [True] * 3)
        assert rows[2][1] == 0
        assert rows[0][1] == 1  # stay on the repeated prefix

    def test_untraced_messages_keep_the_state(self):
        rows = _kmp_steps((0, 1), [True, True, False])
        assert rows[2] == (0, 1, 2)

    def test_a_symbol_no_edge_carries_is_never_matched(self):
        rows = _kmp_steps((0, None, 1), [True] * 2)
        assert all(row[1] != 2 for row in rows)

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_the_definition(self, seed):
        rng = random.Random(seed)
        pattern = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
        rows = _kmp_steps(pattern, [True] * 3)
        for symbol, row in enumerate(rows):
            assert row == tuple(
                defined_step(pattern, state, symbol)
                for state in range(len(pattern) + 1)
            )


def _naive_failure(pattern):
    """Reference failure function by definition: longest proper border
    of each prefix."""
    table = []
    for end in range(1, len(pattern) + 1):
        prefix = pattern[:end]
        table.append(
            max(
                (
                    k
                    for k in range(end)
                    if prefix[:k] == prefix[end - k:]
                ),
            )
        )
    return table


class TestKmpExtend:
    """The failure table of a growing window equals the by-definition
    table, and growing the window only appends to it."""

    @pytest.mark.parametrize(
        "pattern",
        ["abc", "aaab", "ababaa", "aabaaab", "x", "", "abababab"],
    )
    def test_matches_definition(self, pattern):
        assert kmp_failure(tuple(pattern)) == _naive_failure(pattern)

    def test_extension_is_incremental(self):
        # extending never rewrites earlier entries
        pattern = "aabaa"
        snapshots = [
            tuple(kmp_failure(pattern[:end]))
            for end in range(1, len(pattern) + 1)
        ]
        for shorter, longer in zip(snapshots, snapshots[1:]):
            assert longer[: len(shorter)] == shorter


class TestWindowDepthOne:
    """Depth-1 buffers: the window is a single capture."""

    def test_single_symbol_window_counts_containing_paths(
        self, cc_interleaved, traced, localizer
    ):
        visible = set(traced)
        for message in sorted(traced):
            for index in (1, 2):
                obs = (IndexedMessage(message, index),)
                expected = sum(
                    1
                    for execution in cc_interleaved.executions()
                    if obs[0]
                    in project_trace(execution.messages, visible)
                )
                got = localizer.localize(list(obs), mode="window")
                assert got.consistent_paths == expected, obs

    def test_every_path_contains_each_indexed_message(
        self, traced, localizer
    ):
        # on the toy flow every visible message occurs on every path,
        # so any depth-1 window is uninformative
        total = localizer.total_paths
        assert localizer.window_count(
            [IndexedMessage(sorted(traced)[0], 1)]
        ) == total


class TestWindowMode:
    def test_empty_window_matches_all(self, localizer):
        result = localizer.localize([], mode="window")
        assert result.consistent_paths == result.total_paths

    def test_window_is_weaker_than_prefix(self, cc_flow, localizer):
        req = cc_flow.message_by_name("ReqE")
        gnt = cc_flow.message_by_name("GntE")
        obs = [IndexedMessage(req, 1), IndexedMessage(gnt, 1),
               IndexedMessage(req, 2)]
        prefix = localizer.localize(obs, mode="prefix")
        window = localizer.localize(obs, mode="window")
        # a window anywhere is implied by a prefix match
        assert window.consistent_paths >= prefix.consistent_paths

    def test_interior_window(self, cc_flow, localizer):
        # a window that is NOT a prefix of any projection: 2:ReqE then
        # 1:ReqE means instance 2 requested first
        req = cc_flow.message_by_name("ReqE")
        obs = [IndexedMessage(req, 2), IndexedMessage(req, 1)]
        window = localizer.localize(obs, mode="window").consistent_paths
        prefix = localizer.localize(obs, mode="prefix").consistent_paths
        assert window == prefix  # both count the 2-requested-first paths
        assert 0 < window < localizer.total_paths

    def test_matches_brute_force(self, cc_interleaved, traced, localizer):
        """Window counts equal brute-force enumeration over all paths."""
        visible = set(traced)
        req = sorted(traced)[1]  # ReqE
        gnt = sorted(traced)[0]  # GntE
        obs = (IndexedMessage(req, 1), IndexedMessage(gnt, 1))
        expected = 0
        for execution in cc_interleaved.executions():
            projection = project_trace(execution.messages, visible)
            hits = any(
                projection[i:i + len(obs)] == obs
                for i in range(len(projection) - len(obs) + 1)
            )
            expected += 1 if hits else 0
        got = localizer.localize(list(obs), mode="window")
        assert got.consistent_paths == expected

    def test_overlapping_pattern_not_double_counted(
        self, cc_interleaved, cc_flow
    ):
        # trace only ReqE; window = one ReqE of either instance would
        # match twice per path -- the count must still be per-path
        req = cc_flow.message_by_name("ReqE")
        localizer = PathLocalizer(cc_interleaved, [req])
        result = localizer.localize([IndexedMessage(req, 1)], mode="window")
        # every path contains 1:ReqE exactly once; all paths consistent
        assert result.consistent_paths == result.total_paths

    def test_requires_indexed_observation(self, cc_flow, localizer):
        req = cc_flow.message_by_name("ReqE")
        with pytest.raises(SelectionError, match="fully indexed"):
            localizer.localize([req], mode="window")

    def test_impossible_window(self, cc_flow, localizer):
        gnt = cc_flow.message_by_name("GntE")
        # GntE of both instances back-to-back is impossible: atomic
        # states force each grant to be followed by its own flow's Ack
        obs = [IndexedMessage(gnt, 1), IndexedMessage(gnt, 2)]
        prefix_like = localizer.localize(obs, mode="window")
        assert prefix_like.consistent_paths < localizer.total_paths

    def test_sampled_windows_always_consistent(
        self, cc_interleaved, traced
    ):
        localizer = PathLocalizer(cc_interleaved, traced)
        rng = random.Random(5)
        for _ in range(15):
            execution = cc_interleaved.random_execution(rng)
            projection = project_trace(execution.messages, set(traced))
            if len(projection) < 2:
                continue
            start = rng.randrange(len(projection) - 1)
            window = list(projection[start:start + 2])
            result = localizer.localize(window, mode="window")
            assert result.consistent_paths >= 1


def assert_windows_match_enumeration(u, rng):
    """Window counts equal enumeration on *u*, for windows cut from
    real projections and for random sequences of traced instances that
    may match nothing."""
    messages = sorted(u.messages)
    traced = MessageCombination(
        rng.sample(messages, rng.randint(1, len(messages)))
    )
    localizer = PathLocalizer(u, traced)
    paths = bruteforce.projections(u, set(traced))
    instances = [m for m in u.indexed_messages if m.message in traced]
    # hypothesis' Random cannot draw from weights that include zeros,
    # which a branching product's walk meets
    walker = random.Random(rng.getrandbits(32))
    windows = []
    for _ in range(3):
        if paths:
            execution = u.random_execution(walker)
            projection = project_trace(execution.messages, traced)
            lo = rng.randint(0, len(projection))
            windows.append(projection[lo:rng.randint(lo, len(projection))])
        if instances:
            windows.append(tuple(
                rng.choice(instances) for _ in range(rng.randint(1, 3))
            ))
    for window in windows:
        assert localizer.window_count(window) == bruteforce.window_count(
            paths, window
        ), window


@contextmanager
def window_route(name):
    """Count windows on route *name* while active: ``"python"`` forces
    the pure-Python backend; ``"exact"`` forces the big-int route on
    numpy by putting every path count over the overflow bound."""
    bound = 0.0 if name == "exact" else interleave_module._COUNT_BOUND
    with route("python" if name == "python" else "numpy"):
        with mock.patch.object(interleave_module, "_COUNT_BOUND", bound):
            yield


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.randoms(use_true_random=False))
def test_window_count_matches_brute_force_on_random_flows(u, rng):
    assume(u.count_paths() <= 2000)  # small enough to enumerate
    assert_windows_match_enumeration(u, rng)


@settings(max_examples=60, deadline=None)
@given(dag_scenarios(), st.randoms(use_true_random=False))
def test_window_count_matches_brute_force_on_branching_flows(u, rng):
    assume(u.messages and u.count_paths() <= 2000)
    assert_windows_match_enumeration(u, rng)


@pytest.mark.parametrize("name", ["python", "exact"])
@settings(max_examples=40, deadline=None)
@given(
    st.one_of(scenarios(), dag_scenarios()),
    st.randoms(use_true_random=False),
)
def test_window_count_matches_brute_force_on_every_route(name, u, rng):
    assume(u.messages and u.count_paths() <= 2000)
    with window_route(name):
        # a fresh product, so its path counts run on this route too
        assert_windows_match_enumeration(interleave(u.components), rng)


def test_window_count_beyond_int64_is_exact():
    """64 diamonds in series: each picks ``up`` or ``down``, so the
    visible projection is any of the 2**64 choice strings; those
    holding ``up up`` are all but the F(66) strings without two
    consecutive ups."""
    flow = diamond_chain(64)
    up, down = (flow.message_by_name(name) for name in ("up", "down"))
    product = interleave(index_flows([flow]))
    localizer = PathLocalizer(product, [up, down])
    assert localizer.total_paths == 2**64
    window = (IndexedMessage(up, 1), IndexedMessage(up, 1))
    fibonacci = [0, 1]
    while len(fibonacci) < 67:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert localizer.window_count(window) == 2**64 - fibonacci[66]


def test_diamond_window_formula_matches_enumeration():
    """The closed form above, checked against enumeration on 8
    diamonds."""
    flow = diamond_chain(8)
    up, down = (flow.message_by_name(name) for name in ("up", "down"))
    product = interleave(index_flows([flow]))
    window = (IndexedMessage(up, 1), IndexedMessage(up, 1))
    paths = bruteforce.projections(product, {up, down})
    no_two_ups = sum(
        1 for bits in itertools.product((0, 1), repeat=8)
        if all(not (a and b) for a, b in zip(bits, bits[1:]))
    )
    expected = bruteforce.window_count(paths, window)
    assert expected == 2**8 - no_two_ups
    assert PathLocalizer(product, [up, down]).window_count(window) == expected


@pytest.fixture(scope="module")
def sc2x2_windows():
    """A window-mode localizer over sc2x2 and one capture from it."""
    from repro.server import ServeContext
    from repro.stream.service import synthetic_session_records

    context = ServeContext.from_scenario(2, instances=2, mode="window")
    localizer = PathLocalizer(context.interleaved, context.traced)
    records = synthetic_session_records(
        context.interleaved, context.traced, seed=3
    )
    return localizer, tuple(record.message for record in records)


def traced_peak(call):
    """``call()`` and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_window_longer_than_any_path_builds_nothing(sc2x2_windows):
    localizer, capture = sc2x2_windows
    window = (capture * 4096)[:4096]  # the default max_frontier
    count, peak = traced_peak(lambda: localizer.window_count(window))
    assert count == 0
    assert peak < 64 * 1024


def test_one_window_count_stays_small(sc2x2_windows):
    # the count table of a 12-record window on sc2x2's 5,040 states
    # is 0.52 MB of int64; the widest level's gather adds about 0.6 MB
    # on numpy (1.16 MB in all; 0.8 MB on the pure-Python route)
    localizer, capture = sc2x2_windows
    window = (capture * 12)[:12]
    localizer._window_memo.clear()
    count, peak = traced_peak(lambda: localizer.window_count(window))
    assert count > 0
    assert peak < 1.25 * 1024 * 1024
