"""Tests for the session manager: limits, eviction, overflow status,
and the summaries retired sessions return."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from repro.core.message import IndexedMessage
from repro.errors import StreamError
from repro.selection import kernels
from repro.selection.kernels import TableRegistry
from repro.selection.localization import PathLocalizer
from repro.sim.engine import TransactionSimulator
from repro.stream.session import (
    ACTIVE,
    EVICTED,
    OVERFLOW,
    SessionLimits,
    SessionManager,
)
from tests.server.test_serve_footprint import package_env


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def manager(cc_interleaved, traced, clock) -> SessionManager:
    return SessionManager(
        cc_interleaved,
        traced,
        limits=SessionLimits(max_frontier=64, idle_timeout_s=10.0),
        clock=clock,
    )


class TestLifecycle:
    def test_open_feed_snapshot_close(self, manager, cc_flow):
        req = cc_flow.message_by_name("ReqE")
        sid = manager.open("a")
        outcome = manager.feed(sid, [IndexedMessage(req, 1)])
        assert outcome.consumed == 1
        assert outcome.status == ACTIVE
        assert outcome.observed_length == 1
        result = manager.snapshot(sid)
        assert 0 < result.consistent_paths < result.total_paths
        summary = manager.close(sid)
        assert summary["records"] == 1
        assert summary["status"] == "closed"
        assert sid not in manager.session_ids()

    def test_close_emits_telemetry(self, manager):
        sid = manager.open("a")
        session = manager.session(sid)
        summary = manager.close(sid)
        assert summary["mode"] == "prefix"
        assert summary["status"] == session.status == "closed"
        assert sid not in manager.session_ids()

    def test_stats_counters_track_lifecycle(self, manager, cc_flow):
        req = cc_flow.message_by_name("ReqE")
        sid = manager.open("a")
        manager.feed(sid, (req,), drop_invisible=True)
        manager.close(sid)
        assert manager.stats() == {
            "open_sessions": 0,
            "opened": 1,
            "closed": 1,
            "evicted": 0,
            "overflowed": 0,
            "quarantined": 0,
            "feeds": 1,
            "records": 1,
        }

    def test_unknown_session(self, manager):
        with pytest.raises(StreamError, match="unknown session"):
            manager.feed("nope", [])
        with pytest.raises(StreamError, match="unknown session"):
            manager.snapshot("nope")

    def test_duplicate_id_rejected(self, manager):
        manager.open("dup")
        with pytest.raises(StreamError, match="already open"):
            manager.open("dup")

    def test_per_session_mode_override(self, manager, cc_flow):
        req = cc_flow.message_by_name("ReqE")
        sid = manager.open("a", mode="window")
        assert manager.session(sid).mode == "window"
        manager.feed(sid, [IndexedMessage(req, 1)])
        result = manager.snapshot(sid)
        assert result.consistent_paths == result.total_paths


class TestWarm:
    def test_window_manager_compiles_on_first_prefix_open(
        self, monkeypatch, cc_flow, cc_interleaved, traced
    ):
        registry = TableRegistry()
        monkeypatch.setattr(kernels, "_DEFAULT_REGISTRY", registry)
        observed = [
            IndexedMessage(cc_flow.message_by_name("ReqE"), 1),
            IndexedMessage(cc_flow.message_by_name("GntE"), 1),
        ]
        manager = SessionManager(cc_interleaved, traced, mode="window")
        manager.warm()
        window = manager.open("window")
        manager.feed(window, observed)
        manager.close(window)
        # window sessions never read the compiled tables
        assert registry.stats()["misses"] == 0
        expected = PathLocalizer(
            cc_interleaved, traced, registry=TableRegistry()
        ).localize(observed)
        for number in range(2):
            sid = manager.open(f"prefix-{number}", mode="prefix")
            manager.feed(sid, observed)
            summary = manager.close(sid)
            assert summary["consistent_paths"] == expected.consistent_paths
            assert summary["total_paths"] == expected.total_paths
        # the first prefix session compiled, the second reused it
        assert registry.stats()["misses"] == 1

    @pytest.mark.parametrize("mode", ("prefix", "exact"))
    def test_prefix_and_exact_managers_compile_at_warm(
        self, monkeypatch, cc_interleaved, traced, mode
    ):
        registry = TableRegistry()
        monkeypatch.setattr(kernels, "_DEFAULT_REGISTRY", registry)
        SessionManager(cc_interleaved, traced, mode=mode).warm()
        assert registry.stats()["misses"] == 1


class TestLimits:
    def test_idle_eviction_frees_capacity(self, manager, clock):
        stale = manager.open("stale")
        session = manager.session(stale)
        clock.now = 11.0  # stale is now past idle_timeout_s
        fresh = [manager.open(f"fresh-{n}") for n in range(3)]
        # an open evicts nothing: the host's admission or sweep does
        assert stale in manager.session_ids()
        assert manager.evict_idle() == (stale,)
        assert stale not in manager.session_ids()
        assert set(fresh) == set(manager.session_ids())
        assert session.status == EVICTED
        assert manager.stats()["evicted"] == 1

    def test_feed_after_eviction_never_mutates_the_retired_session(
        self, manager, clock, cc_flow
    ):
        req = cc_flow.message_by_name("ReqE")
        sid = manager.open("a")
        session = manager.session(sid)
        clock.now = 11.0
        assert manager.evict_idle() == (sid,)
        assert sid not in manager.session_ids()
        assert session.status == EVICTED
        with pytest.raises(StreamError, match="unknown session"):
            manager.feed(sid, (req,), drop_invisible=True)
        assert session.localizer.observed_length == 0

    def test_active_sessions_not_evicted(self, manager, clock, cc_flow):
        req = cc_flow.message_by_name("ReqE")
        sid = manager.open("a")
        clock.now = 8.0
        manager.feed(sid, [IndexedMessage(req, 1)])  # refreshes last_active
        clock.now = 16.0  # 8s since the feed: still live
        assert manager.evict_idle() == ()
        assert sid in manager.session_ids()

    def test_overflow_is_a_status_not_an_exception(
        self, cc_interleaved, traced, cc_flow, clock
    ):
        manager = SessionManager(
            cc_interleaved,
            traced,
            limits=SessionLimits(max_frontier=1),
            clock=clock,
        )
        req = cc_flow.message_by_name("ReqE")
        sid = manager.open("a")
        before = manager.snapshot(sid)
        outcome = manager.feed(sid, [req])  # frontier 2 > limit 1
        assert outcome.status == OVERFLOW
        assert manager.snapshot(sid) == before  # frozen
        again = manager.feed(sid, [req])  # explicit no-op
        assert again.consumed == 0
        assert again.status == OVERFLOW
        summary = manager.close(sid)
        assert summary["status"] == OVERFLOW


class TestFeedFiltering:
    def test_drop_invisible_skips_untraced(
        self, manager, cc_interleaved, traced
    ):
        trace = TransactionSimulator(cc_interleaved, "Toy").run(seed=2)
        sid = manager.open("a")
        outcome = manager.feed(sid, trace.records, drop_invisible=True)
        assert outcome.consumed == len(trace.project(tuple(traced)))


#: Opens a session on the main thread, then reads the table from a
#: second thread and re-raises what that read raised.
OFF_THREAD_READ = textwrap.dedent(
    """
    import threading

    from repro.core.interleave import interleave_flows
    from repro.examples_builtin import toy_cache_coherence_flow
    from repro.stream.session import SessionManager

    flow = toy_cache_coherence_flow()
    manager = SessionManager(
        interleave_flows([flow], copies=2), [flow.message_by_name("ReqE")]
    )
    manager.open("s")
    outcome = []

    def read():
        try:
            outcome.append(manager.session_ids())
        except RuntimeError as exc:
            outcome.append(exc)

    reader = threading.Thread(target=read)
    reader.start()
    reader.join()
    if isinstance(outcome[0], RuntimeError):
        raise outcome[0]
    print(outcome[0])
    """
)


def test_dev_mode_refuses_a_read_from_another_thread():
    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-c", OFF_THREAD_READ],
            capture_output=True, text=True, env=package_env(), timeout=120,
        )

    checked = run("-X", "dev")
    assert checked.returncode != 0
    assert (
        "RuntimeError: SessionManager.session_ids called from thread"
        in checked.stderr
    ), checked.stderr
    plain = run()
    assert plain.returncode == 0, plain.stderr
    assert plain.stdout.strip() == "('s',)"
