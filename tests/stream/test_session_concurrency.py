"""Thread-safety hammer for :class:`SessionManager`.

Worker threads run full open/feed/snapshot/close lifecycles while a
sweeper thread evicts idle sessions with a near-zero timeout.  The
debug server drives each manager from one shard thread, but the
manager promises to be safe from several.  The
regression this pins down: session-table mutation and the eviction
sweep must be lock-guarded so a feed racing an eviction either wins
cleanly or fails with the structured "unknown session" error; it must
never deadlock, double-retire, or corrupt the accounting.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.interleave import interleave_flows
from repro.errors import StreamError
from repro.stream.session import SessionLimits, SessionManager


@pytest.fixture
def manager(cc_flow):
    interleaved = interleave_flows([cc_flow], copies=2)
    traced = (
        cc_flow.message_by_name("ReqE"),
        cc_flow.message_by_name("GntE"),
    )
    return SessionManager(
        interleaved,
        traced,
        limits=SessionLimits(
            max_sessions=256, idle_timeout_s=0.0005
        ),
    )


def test_lifecycles_racing_eviction_sweep(manager, cc_flow):
    req = cc_flow.message_by_name("ReqE")
    stop = threading.Event()
    unknown_errors = []
    unexpected = []

    def sweeper():
        while not stop.is_set():
            manager.evict_idle()

    def worker(worker_index: int):
        for round_index in range(40):
            sid = f"w{worker_index}-{round_index}"
            try:
                manager.open(sid)
                manager.feed(sid, (req,), drop_invisible=True)
                manager.snapshot(sid)
                # dwell long enough that the sweeper can win the race
                time.sleep(0.0005)
                manager.close(sid)
            except StreamError as exc:
                if "unknown session" in str(exc):
                    unknown_errors.append(sid)
                else:
                    unexpected.append(exc)
            except Exception as exc:  # pragma: no cover - the failure
                unexpected.append(exc)  # this test exists to catch

    sweep_thread = threading.Thread(target=sweeper)
    workers = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    sweep_thread.start()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=60)
        assert not thread.is_alive(), "worker deadlocked"
    stop.set()
    sweep_thread.join(timeout=10)
    assert not sweep_thread.is_alive(), "sweeper deadlocked"

    assert not unexpected, unexpected
    stats = manager.stats()
    # every opened session is accounted for exactly once
    assert stats["opened"] == 8 * 40
    assert (
        stats["closed"] + stats["evicted"] + stats["overflowed"]
        == stats["opened"]
    )
    assert stats["open_sessions"] == 0
    assert len(manager) == 0


def test_feed_racing_eviction_never_mutates_a_retired_session(
    manager, cc_flow
):
    req = cc_flow.message_by_name("ReqE")
    sid = manager.open("racer")
    session = manager.session(sid)
    # retire it out from under a feed by forcing the idle path
    time.sleep(0.002)
    assert manager.evict_idle() == (sid,)
    assert session.retired
    before = session.records
    with pytest.raises(StreamError, match="unknown session"):
        manager.feed(sid, (req,), drop_invisible=True)
    assert session.records == before


def test_stats_counters_track_lifecycle(manager, cc_flow):
    req = cc_flow.message_by_name("ReqE")
    sid = manager.open()
    manager.feed(sid, (req,), drop_invisible=True)
    manager.close(sid)
    stats = manager.stats()
    assert stats == {
        "open_sessions": 0,
        "opened": 1,
        "closed": 1,
        "evicted": 0,
        "overflowed": 0,
        "quarantined": 0,
        "feeds": 1,
        "records": 1,
    }
