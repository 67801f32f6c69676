"""Tests for window-mode (depth-limited buffer) localization."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.execution import project_trace
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.errors import SelectionError
from repro.selection.localization import (
    PathLocalizer,
    _kmp_transition,
    kmp_extend,
    kmp_failure,
)
from tests.selection import bruteforce
from tests.strategies import scenarios


@pytest.fixture
def traced(cc_flow) -> MessageCombination:
    return MessageCombination(
        [cc_flow.message_by_name("ReqE"), cc_flow.message_by_name("GntE")]
    )


@pytest.fixture
def localizer(cc_interleaved, traced) -> PathLocalizer:
    return PathLocalizer(cc_interleaved, traced)


class TestKmpTransition:
    def test_linear_advance(self):
        step = _kmp_transition(("a", "b", "c"))
        state = 0
        for symbol in "abc":
            state = step(state, symbol)
        assert state == 3

    def test_failure_links(self):
        step = _kmp_transition(("a", "a", "b"))
        # "aab" inside "aaab": states 0-a->1-a->2-a->2-b->3
        state = 0
        for symbol in "aaab":
            state = step(state, symbol)
        assert state == 3

    def test_accept_is_absorbing(self):
        step = _kmp_transition(("a",))
        assert step(1, "z") == 1

    def test_mismatch_resets(self):
        step = _kmp_transition(("a", "b"))
        assert step(1, "x") == 0
        assert step(1, "a") == 1  # stay on the repeated prefix


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
    """Online failure-table growth must equal the by-definition table."""

    @pytest.mark.parametrize(
        "pattern",
        ["abc", "aaab", "ababaa", "aabaaab", "x", "", "abababab"],
    )
    def test_matches_definition(self, pattern):
        grown, failure = [], []
        for symbol in pattern:
            kmp_extend(grown, failure, symbol)  # appends symbol itself
        assert grown == list(pattern)
        assert failure == _naive_failure(pattern)
        assert kmp_failure(tuple(pattern)) == failure

    def test_extension_is_incremental(self):
        # extending never rewrites earlier entries
        grown, failure = [], []
        snapshots = []
        for symbol in "aabaa":
            kmp_extend(grown, failure, symbol)
            snapshots.append(tuple(failure))
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


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.randoms(use_true_random=False))
def test_window_count_matches_brute_force_on_random_flows(u, rng):
    """Window counts equal enumeration on random flows, for windows cut
    from real projections and for random sequences of traced instances
    that may match nothing."""
    assume(u.count_paths() <= 2000)  # small enough to enumerate
    messages = sorted(u.messages)
    traced = MessageCombination(
        rng.sample(messages, rng.randint(1, len(messages)))
    )
    localizer = PathLocalizer(u, traced)
    paths = bruteforce.projections(u, set(traced))
    instances = [m for m in u.indexed_messages if m.message in traced]
    windows = []
    for _ in range(3):
        projection = project_trace(u.random_execution(rng).messages, traced)
        lo = rng.randint(0, len(projection))
        windows.append(projection[lo:rng.randint(lo, len(projection))])
        windows.append(
            tuple(rng.choice(instances) for _ in range(rng.randint(1, 3)))
        )
    for window in windows:
        assert localizer.window_count(window) == bruteforce.window_count(
            paths, window
        ), window
