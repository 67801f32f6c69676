"""Concurrent debug-session management for online localization.

A production debug service faces many validators at once, each
following their own failing run.  :class:`SessionManager` owns one
:class:`~repro.stream.incremental.IncrementalLocalizer` per session
and enforces the limits that keep the process bounded:

* ``max_sessions`` -- the session table never grows past it (idle
  sessions are evicted first; a full table refuses new opens),
* ``max_frontier`` -- per-session DP state is bounded; a session whose
  frontier outgrows it flips to the explicit ``"overflow"`` status and
  freezes at its last consistent snapshot instead of eating the heap,
* ``idle_timeout_s`` -- sessions nobody fed for that long are evicted.

All sessions share one :class:`~repro.selection.localization.
PathLocalizer` per scenario (the compiled kernel tables and the
path-count tables are read-only), so per-session cost is just the
carried frontier.  :meth:`SessionManager.close` and
:meth:`SessionManager.quarantine` return the retired session's
:class:`~repro.runtime.telemetry.RunRecord` (name ``stream:<id>``);
the server builds its CLOSE reply from it.

Locking discipline (the multi-shard service sweeps idle sessions from
a different thread than the one feeding them):

* the *manager* lock guards the session table (``open``/``close``/
  ``evict_idle`` mutation, lookups, id allocation, the stats counters),
* a *per-session* lock guards that session's localizer state, so two
  sessions feed concurrently and an eviction sweep cannot retire a
  session mid-feed.

The manager lock is *never* held while waiting on a session lock
(lookups release it first); retiring a session nests the manager lock
inside the session lock, so that is the one nesting order and the pair
cannot deadlock.  ``feed``/``snapshot`` drop the manager lock before
the DP advance -- a long chunk on one session never blocks the table.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import FrontierOverflowError, StreamError
from repro.runtime.telemetry import RunRecord
from repro.selection.localization import LocalizationResult, PathLocalizer
from repro.stream.incremental import IncrementalLocalizer, Observable

#: Session lifecycle states.
ACTIVE = "active"
OVERFLOW = "overflow"
CLOSED = "closed"
EVICTED = "evicted"
#: Forcibly retired after repeated poisonous feeds -- the hosting
#: service decided this session's input stream cannot be trusted and
#: quarantined it rather than retrying it forever.
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class SessionLimits:
    """Resource bounds one :class:`SessionManager` enforces."""

    max_sessions: int = 64
    max_frontier: Optional[int] = 4096
    idle_timeout_s: float = 300.0


@dataclass(frozen=True)
class FeedOutcome:
    """What one :meth:`SessionManager.feed` call did."""

    session_id: str
    consumed: int
    status: str
    observed_length: int
    frontier_size: int


class StreamSession:
    """One validator's live localization state (owned by the manager)."""

    def __init__(
        self,
        session_id: str,
        localizer: IncrementalLocalizer,
        opened_at: float,
    ) -> None:
        self.session_id = session_id
        self.localizer = localizer
        self.status = ACTIVE
        self.opened_at = opened_at
        self.last_active = opened_at
        self.feeds = 0
        self.records = 0
        #: Serializes this session's localizer mutations against the
        #: eviction sweep; acquired only after (never while waiting
        #: for) the manager lock.
        self.lock = threading.Lock()
        #: Set exactly once, under ``lock``, when the session leaves
        #: the table -- feeds racing an eviction see it and fail with
        #: an "unknown session" error instead of mutating a retired
        #: localizer.
        self.retired = False

    @property
    def mode(self) -> str:
        return self.localizer.mode


class SessionManager:
    """Multiplexes many incremental localization sessions.

    Parameters
    ----------
    interleaved:
        The usage scenario's interleaved flow (shared by all sessions).
    traced:
        The traced message set.
    mode:
        Default localization mode for new sessions (overridable per
        :meth:`open`).
    limits:
        Resource bounds; defaults to :class:`SessionLimits`.
    clock:
        Monotonic-seconds source (injectable for eviction tests).
    """

    def __init__(
        self,
        interleaved: InterleavedFlow,
        traced: Iterable[Message],
        mode: str = "prefix",
        limits: Optional[SessionLimits] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limits = limits if limits is not None else SessionLimits()
        self.default_mode = mode
        self._shared = PathLocalizer(interleaved, traced)
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: Dict[str, StreamSession] = {}
        self._next_id = 0
        self._opened = 0
        self._retired: Dict[str, int] = {
            CLOSED: 0, EVICTED: 0, OVERFLOW: 0, QUARANTINED: 0,
        }
        self._feeds = 0
        self._records = 0

    # ------------------------------------------------------------------
    @property
    def shared_localizer(self) -> PathLocalizer:
        return self._shared

    def warm(self) -> "SessionManager":
        """Pre-build the shared localizer's lazy DP tables so the first
        ``open``/``feed`` doesn't pay for them.  Hosts that keep a
        manager per shard call this at startup; returns ``self``."""
        self._shared.warm()
        return self

    def session_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._sessions)

    def session(self, session_id: str) -> StreamSession:
        with self._lock:
            return self._get(session_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters (for the service metrics plane)."""
        with self._lock:
            return {
                "open_sessions": len(self._sessions),
                "opened": self._opened,
                "closed": self._retired[CLOSED],
                "evicted": self._retired[EVICTED],
                "overflowed": self._retired[OVERFLOW],
                "quarantined": self._retired[QUARANTINED],
                "feeds": self._feeds,
                "records": self._records,
            }

    # ------------------------------------------------------------------
    def open(
        self, session_id: Optional[str] = None, mode: Optional[str] = None
    ) -> str:
        """Open a session; returns its id.

        Evicts idle sessions first; raises :class:`~repro.errors.
        StreamError` when the table is still full or the id is taken.
        """
        self.evict_idle()
        with self._lock:
            if len(self._sessions) >= self.limits.max_sessions:
                raise StreamError(
                    f"session table full ({self.limits.max_sessions}); "
                    "close or evict a session first"
                )
            if session_id is None:
                self._next_id += 1
                session_id = f"s{self._next_id:04d}"
            if session_id in self._sessions:
                raise StreamError(f"session {session_id!r} already open")
            localizer = IncrementalLocalizer(
                mode=mode if mode is not None else self.default_mode,
                max_frontier=self.limits.max_frontier,
                localizer=self._shared,
            )
            self._sessions[session_id] = StreamSession(
                session_id, localizer, self._clock()
            )
            self._opened += 1
            return session_id

    def adopt(
        self,
        session_id: str,
        mode: Optional[str] = None,
        status: str = ACTIVE,
        feeds: int = 0,
        records: int = 0,
        localizer_state: Optional[dict] = None,
    ) -> StreamSession:
        """Re-open a session from persisted state (the store's recovery
        and spill-revival path).

        Like :meth:`open` it honors ``max_sessions`` and refuses a
        taken id, but it additionally restores the localizer's carried
        DP state and the session counters, so the adopted session is
        indistinguishable from one that was fed live.  The caller is
        responsible for fingerprint-checking the state against this
        manager's scenario first.
        """
        if status not in (ACTIVE, OVERFLOW):
            raise StreamError(
                f"cannot adopt a session in status {status!r}"
            )
        self.evict_idle()
        with self._lock:
            if len(self._sessions) >= self.limits.max_sessions:
                raise StreamError(
                    f"session table full ({self.limits.max_sessions}); "
                    "close or evict a session first"
                )
            if session_id in self._sessions:
                raise StreamError(f"session {session_id!r} already open")
            localizer = IncrementalLocalizer(
                mode=mode if mode is not None else self.default_mode,
                max_frontier=self.limits.max_frontier,
                localizer=self._shared,
            )
            if localizer_state is not None:
                localizer.restore_state(localizer_state)
            session = StreamSession(session_id, localizer, self._clock())
            session.status = status
            session.feeds = feeds
            session.records = records
            self._sessions[session_id] = session
            self._opened += 1
            return session

    def export_session(self, session_id: str) -> dict:
        """A session's full durable state (counters + localizer DP) as
        a JSON-able dict -- the inverse of :meth:`adopt`."""
        with self._lock:
            session = self._get(session_id)
        with session.lock:
            if session.retired:
                raise StreamError(f"unknown session {session_id!r}")
            return self._export_locked(session)

    @staticmethod
    def _export_locked(session: StreamSession) -> dict:
        """Durable state of *session* (caller holds ``session.lock``)."""
        return {
            "session_id": session.session_id,
            "mode": session.mode,
            "status": session.status,
            "feeds": session.feeds,
            "records": session.records,
            "localizer": session.localizer.export_state(),
        }

    def feed(
        self,
        session_id: str,
        records: Iterable[Observable],
        drop_invisible: bool = False,
    ) -> FeedOutcome:
        """Feed *records* to a session.

        A frontier overflow does not raise: the session flips to the
        ``"overflow"`` status, keeps its last consistent snapshot, and
        silently ignores further feeds -- the outcome's ``status``
        field is the explicit signal.  ``drop_invisible`` skips records
        the trace buffer would not have captured (raw simulator or
        ingest streams) instead of treating them as an error.
        """
        with self._lock:
            session = self._get(session_id)
        with session.lock:
            if session.retired:
                raise StreamError(f"unknown session {session_id!r}")
            session.last_active = self._clock()
            if session.status == OVERFLOW:
                return self._outcome(session, consumed=0)
            session.feeds += 1
            batch = [
                item
                for item in records
                if not drop_invisible or session.localizer.is_visible(item)
            ]
            before = session.localizer.observed_length
            try:
                consumed = session.localizer.feed(batch)
            except FrontierOverflowError:
                # the localizer froze at the last consistent record;
                # everything before the overflowing one still counts
                consumed = session.localizer.observed_length - before
                session.status = OVERFLOW
            session.records += consumed
            session.last_active = self._clock()
            outcome = self._outcome(session, consumed=consumed)
        with self._lock:
            self._feeds += 1
            self._records += consumed
        return outcome

    def snapshot(self, session_id: str) -> LocalizationResult:
        """The session's current localization (batch-identical)."""
        with self._lock:
            session = self._get(session_id)
        with session.lock:
            if session.retired:
                raise StreamError(f"unknown session {session_id!r}")
            return session.localizer.snapshot()

    def close(self, session_id: str) -> RunRecord:
        """Close a session; returns its final record."""
        with self._lock:
            session = self._get(session_id)
        with session.lock:
            if session.retired:
                raise StreamError(f"unknown session {session_id!r}")
            return self._retire_locked(session, CLOSED)

    def quarantine(self, session_id: str) -> RunRecord:
        """Forcibly retire a session whose input stream proved
        poisonous (repeated feed failures).  Unlike :meth:`close`, the
        terminal status is always ``"quarantined"`` -- even for a
        session already sitting in overflow -- because the reason it
        left the table is the poison, not the frontier bound."""
        with self._lock:
            session = self._get(session_id)
        with session.lock:
            if session.retired:
                raise StreamError(f"unknown session {session_id!r}")
            # _retire_locked preserves a non-ACTIVE status; quarantine
            # must win over overflow, so force the terminal state here
            session.status = ACTIVE
            return self._retire_locked(session, QUARANTINED)

    def evict_idle(
        self,
        now: Optional[float] = None,
        spill: Optional[Callable[[dict], None]] = None,
    ) -> Tuple[str, ...]:
        """Retire sessions idle for longer than ``idle_timeout_s``.

        When *spill* is given, each evicted session's durable state
        (the :meth:`export_session` dict) is handed to it under the
        session lock *before* the session is retired -- the store's
        eviction path persists the state instead of losing it.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            candidates = [
                s
                for s in self._sessions.values()
                if now - s.last_active > self.limits.idle_timeout_s
            ]
        evicted: List[str] = []
        for session in candidates:
            with session.lock:
                # re-check under the session lock: a feed racing the
                # sweep may have refreshed last_active (or a close may
                # have retired the session already)
                if session.retired:
                    continue
                if now - session.last_active <= self.limits.idle_timeout_s:
                    continue
                if spill is not None:
                    spill(self._export_locked(session))
                self._retire_locked(session, EVICTED)
                evicted.append(session.session_id)
        return tuple(evicted)

    # ------------------------------------------------------------------
    def _get(self, session_id: str) -> StreamSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise StreamError(f"unknown session {session_id!r}")
        return session

    def _outcome(self, session: StreamSession, consumed: int) -> FeedOutcome:
        return FeedOutcome(
            session_id=session.session_id,
            consumed=consumed,
            status=session.status,
            observed_length=session.localizer.observed_length,
            frontier_size=session.localizer.frontier_size,
        )

    def _retire_locked(
        self, session: StreamSession, status: str
    ) -> RunRecord:
        """Retire *session* (caller holds ``session.lock``)."""
        result = session.localizer.snapshot()
        final = status if session.status == ACTIVE else session.status
        record = RunRecord(
            name=f"stream:{session.session_id}",
            jobs=1,
            tasks_dispatched=session.feeds,
            tasks_completed=session.feeds,
            tasks_failed=0,
            wall_time_s=self._clock() - session.opened_at,
            extra={
                "mode": session.mode,
                "status": final,
                "records": session.records,
                "observed_length": session.localizer.observed_length,
                "peak_frontier": session.localizer.peak_frontier,
                "consistent_paths": result.consistent_paths,
                "total_paths": result.total_paths,
                "fraction": result.fraction,
            },
        )
        session.status = final
        session.retired = True
        with self._lock:
            self._sessions.pop(session.session_id, None)
            self._retired[final] = self._retired.get(final, 0) + 1
        return record
