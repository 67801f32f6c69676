"""Batched FEED semantics: chunking must be invisible.

``IncrementalLocalizer.feed`` hands whole chunks to
``PathLocalizer.advance_many`` (one kernel invocation).  These tests
pin the contract that made that safe: any chunking of the same record
stream produces the same snapshots, lengths, and peaks as the
per-record loop -- including when an untraced symbol or a frontier
overflow interrupts a chunk midway.  Each runs on both kernel
backends: numpy (``dense``) and the pure-Python kernels (``python``).
"""

from __future__ import annotations

import pytest

from repro.core import arrays
from repro.core.interleave import interleave_flows
from repro.errors import FrontierOverflowError, SelectionError
from repro.selection import kernels
from repro.selection.localization import PathLocalizer
from repro.stream.incremental import IncrementalLocalizer
from repro.stream.session import OVERFLOW, SessionLimits, SessionManager


def backends():
    names = ["python"]
    if arrays.have_numpy():
        names.append("dense")
    return names


@pytest.fixture(params=backends())
def shared(request, monkeypatch, cc_flow, traced):
    # a table set is pinned to the backend it was compiled under
    monkeypatch.setattr(arrays, "_force_python", request.param == "python")
    interleaved = interleave_flows([cc_flow], copies=2)
    return PathLocalizer(
        interleaved, traced, registry=kernels.TableRegistry()
    ).warm()


@pytest.fixture
def stream(cc_flow):
    req = cc_flow.message_by_name("ReqE")
    gnt = cc_flow.message_by_name("GntE")
    return [req, gnt, req, gnt]


def drive(shared, records, chunk, mode="prefix", max_frontier=None):
    inc = IncrementalLocalizer(
        mode=mode, max_frontier=max_frontier, localizer=shared
    )
    for start in range(0, len(records), chunk):
        inc.feed(records[start : start + chunk])
    return inc


class TestChunkingInvisible:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 10])
    @pytest.mark.parametrize("mode", ["prefix", "exact"])
    def test_chunked_feed_matches_per_record(
        self, shared, stream, chunk, mode
    ):
        stepwise = drive(shared, stream, chunk=1, mode=mode)
        batched = drive(shared, stream, chunk=chunk, mode=mode)
        assert batched.snapshot() == stepwise.snapshot()
        assert batched.observed_length == stepwise.observed_length
        assert batched.frontier_size == stepwise.frontier_size
        assert batched.peak_frontier == stepwise.peak_frontier

    def test_snapshot_consistent_after_every_chunk(self, shared, stream):
        stepwise = IncrementalLocalizer(localizer=shared)
        batched = IncrementalLocalizer(localizer=shared)
        for start in range(0, len(stream), 2):
            chunk = stream[start : start + 2]
            batched.feed(chunk)
            for record in chunk:
                stepwise.feed([record])
            assert batched.snapshot() == stepwise.snapshot()

    def test_empty_feed_is_a_no_op(self, shared):
        inc = IncrementalLocalizer(localizer=shared)
        before = inc.snapshot()
        assert inc.feed([]) == 0
        assert inc.observed_length == 0
        assert inc.snapshot() == before


class TestPartialChunks:
    def test_untraced_symbol_keeps_valid_prefix(
        self, shared, cc_flow, catalog
    ):
        req = cc_flow.message_by_name("ReqE")
        inc = IncrementalLocalizer(localizer=shared)
        with pytest.raises(SelectionError):
            inc.feed([req, catalog["Ack"], req])
        # the record before the bad one was consumed; the localizer is
        # NOT frozen -- only overflow freezes it
        assert inc.observed_length == 1
        assert not inc.overflowed
        clean = drive(shared, [req], chunk=1)
        assert inc.snapshot() == clean.snapshot()
        assert inc.feed([cc_flow.message_by_name("GntE")]) == 1

    def test_overflow_mid_chunk_freezes_last_consistent(
        self, shared, stream
    ):
        # plain [ReqE, GntE] frontiers grow 1 -> 2 -> 4 on the 2-copy
        # product; a bound of 3 overflows on the second record
        inc = IncrementalLocalizer(localizer=shared, max_frontier=3)
        with pytest.raises(FrontierOverflowError):
            inc.feed(stream)
        assert inc.overflowed
        assert inc.observed_length == 1
        frozen = drive(shared, stream[:1], chunk=1)
        assert inc.frontier_size == frozen.frontier_size
        assert inc.snapshot() == frozen.snapshot()
        with pytest.raises(FrontierOverflowError):
            inc.feed(stream)

    def test_overflow_progress_matches_per_record(self, shared, stream):
        batched = IncrementalLocalizer(localizer=shared, max_frontier=3)
        stepwise = IncrementalLocalizer(localizer=shared, max_frontier=3)
        with pytest.raises(FrontierOverflowError):
            batched.feed(stream)
        for record in stream:
            try:
                stepwise.feed([record])
            except FrontierOverflowError:
                break
        assert batched.observed_length == stepwise.observed_length
        assert batched.peak_frontier == stepwise.peak_frontier
        assert batched.snapshot() == stepwise.snapshot()


class TestManagerBatching:
    def make_manager(self, cc_flow, traced, **limits):
        interleaved = interleave_flows([cc_flow], copies=2)
        return SessionManager(
            interleaved, traced, limits=SessionLimits(**limits)
        )

    def test_chunked_sessions_agree(self, cc_flow, traced, stream):
        manager = self.make_manager(cc_flow, traced)
        one = manager.open("one")
        many = manager.open("many")
        for record in stream:
            manager.feed(one, [record])
        outcome = manager.feed(many, stream)
        assert outcome.consumed == len(stream)
        assert manager.snapshot(many) == manager.snapshot(one)
        assert (
            manager.session(many).localizer.frontier_size
            == manager.session(one).localizer.frontier_size
        )

    def test_overflow_counts_consumed_prefix(
        self, cc_flow, traced, stream
    ):
        manager = self.make_manager(cc_flow, traced, max_frontier=3)
        sid = manager.open("a")
        outcome = manager.feed(sid, stream)
        # only the record before the overflowing one counts
        assert outcome.status == OVERFLOW
        assert outcome.consumed == 1
        assert outcome.observed_length == 1
        # an overflowed session silently ignores further feeds
        again = manager.feed(sid, stream)
        assert again.consumed == 0
        assert again.status == OVERFLOW
        assert manager.close(sid)["records"] == 1

    def test_drop_invisible_batches_only_visible(
        self, cc_flow, traced, catalog, stream
    ):
        manager = self.make_manager(cc_flow, traced)
        sid = manager.open("noisy")
        noisy = [catalog["Ack"], stream[0], catalog["Ack"], stream[1]]
        outcome = manager.feed(sid, noisy, drop_invisible=True)
        assert outcome.consumed == 2
        clean = manager.open("clean")
        manager.feed(clean, stream[:2])
        assert manager.snapshot(sid) == manager.snapshot(clean)
