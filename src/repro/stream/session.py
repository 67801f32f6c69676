"""Concurrent debug-session management for online localization.

A production debug service faces many validators at once, each
following their own failing run.  :class:`SessionManager` owns one
:class:`StreamSession` per validator and enforces the limits that keep
each session bounded:

* ``max_frontier`` -- per-session DP state is bounded; a session whose
  frontier outgrows it flips to the explicit ``"overflow"`` status and
  freezes at its last consistent snapshot instead of eating the heap,
* ``idle_timeout_s`` -- :meth:`SessionManager.evict_idle` retires
  sessions nobody fed for that long, through the manager's ``spill``
  sink when it has one.

How many sessions may be live is the host's decision: the debug
server caps its whole table across shards, evicting idle sessions
before it refuses (:meth:`repro.server.server.DebugServer._make_room`).

A session is everything one validator's stream carries: the chunk
ingest pipeline (its transport, then a UTF-8 decoder and a text
parser, or a compressed-frame decoder), the :class:`~repro.stream.
incremental.IncrementalLocalizer`, the chunk cursor ``next_chunk``,
the poison-strike count ``failures`` and the client's open ``token``.
The localizer's frontier is the one record of how much the session
has consumed.
:meth:`SessionManager.export_session` writes a session's durable entry
and :meth:`SessionManager.adopt` reads one back; :meth:`SessionManager.
open` is ``adopt`` of a fresh entry.  :meth:`SessionManager.close`
and :meth:`SessionManager.quarantine` return a summary dict of the
retired session, from which the server builds its CLOSE reply.

All sessions share one :class:`~repro.selection.localization.
PathLocalizer` per scenario (the compiled kernel tables and the
path-count tables are read-only), so per-session cost is just the
carried frontier and the ingest buffers.

Threads.  A manager belongs to the thread that built it and is not
locked: the debug server builds each shard's manager on its event
loop, runs every op and the idle sweep there, and other threads read
it through that loop.  Under ``python -X dev`` a public method called
from any other thread raises :class:`RuntimeError`.
"""

from __future__ import annotations

import base64
import codecs
import threading
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import FrontierOverflowError, StreamError
from repro.owner import owned
from repro.selection.localization import LocalizationResult, PathLocalizer
from repro.sim.engine import TraceRecord
from repro.stream.incremental import IncrementalLocalizer, Observable
from repro.stream.ingest import IncrementalTraceParser

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
    """One validator's session (owned by the manager): the chunk ingest
    pipeline, the carried localization state and the chunk cursor."""

    def __init__(
        self,
        session_id: str,
        localizer: IncrementalLocalizer,
        transport: str,
        catalog: Mapping[str, Message],
        now: float,
    ) -> None:
        self.session_id = session_id
        self.localizer = localizer
        #: ``"text"`` trace-file chunks, or ``"ctrace"`` framed
        #: compressed-bitstream chunks.
        self.transport = transport
        #: The ingest stages: a ctrace session's frame decoder
        #: (``ingester``), or a text session's UTF-8 ``decoder`` and
        #: ``parser``; the other transport's stay ``None``.
        self.ingester = self.decoder = self.parser = None
        if transport == "ctrace":
            # deferred so a text-only server never imports the codec
            from repro.compress.decoder import IncrementalFrameDecoder

            self.ingester = IncrementalFrameDecoder(catalog)
        else:
            # chunk payloads may split a multi-byte character; decode
            # incrementally so a torn codepoint survives the boundary
            self.decoder = codecs.getincrementaldecoder("utf-8")("replace")
            self.parser = IncrementalTraceParser(catalog)
        self.status = ACTIVE
        self.last_active = now
        #: Index of the next chunk :meth:`SessionManager.feed_chunk`
        #: applies: the cursor a chunked transport checks retransmits
        #: and gaps against.
        self.next_chunk = 0
        #: Consecutive apply-time crashes (poison payloads), counted by
        #: the hosting service and reset on every successful feed.
        #: Deliberately not durable: a restart wipes the strike count,
        #: not the session.
        self.failures = 0
        #: The client's open token: an OPEN that carries it again is a
        #: retry of the one that made this session.  Durable.
        self.token: Optional[str] = None

    @property
    def mode(self) -> str:
        return self.localizer.mode

    def ingest(self, data: bytes, eof: bool) -> List[TraceRecord]:
        """Decode one chunk through this session's transport."""
        if self.ingester is not None:
            records = list(self.ingester.feed(data))
            if eof:
                records.extend(self.ingester.close())
        else:
            text = self.decoder.decode(data, final=eof)
            records = list(self.parser.feed(text))
            if eof:
                records.extend(self.parser.close())
        return records


class SessionManager:
    """Multiplexes many incremental localization sessions.

    A manager is used from the thread that built it; under ``python -X
    dev`` a public method called from another thread raises
    :class:`RuntimeError`.

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
    catalog:
        Message definitions by name for the sessions' chunk parsers;
        it decides which trace lines parse.  A service passes its
        scenario's catalog; the default, the flow's own messages,
        suits callers that never feed chunks.
    spill:
        Sink for evicted sessions' durable entries (see
        :meth:`evict_idle`); ``None`` drops them.
    """

    def __init__(
        self,
        interleaved: InterleavedFlow,
        traced: Iterable[Message],
        mode: str = "prefix",
        limits: Optional[SessionLimits] = None,
        clock: Callable[[], float] = time.monotonic,
        catalog: Optional[Mapping[str, Message]] = None,
        spill: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.limits = limits if limits is not None else SessionLimits()
        self.default_mode = mode
        self._shared = PathLocalizer(interleaved, traced)
        self._catalog = (
            catalog
            if catalog is not None
            else {m.name: m for m in interleaved.messages}
        )
        self._spill = spill
        self._clock = clock
        #: The building thread, which ``-X dev`` checks
        #: (:func:`repro.owner.owned`).
        self._owner = threading.get_ident()
        self._sessions: Dict[str, StreamSession] = {}
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

    @owned
    def warm(self) -> "SessionManager":
        """Pre-build the shared localizer's lazy DP tables that the
        default mode's sessions read, so the first ``open``/``feed``
        doesn't pay for them.  Hosts that keep a manager per shard call
        this at startup; returns ``self``.

        Window sessions read only the stop-path counts and their level
        schedule, which the localizer built on construction, so a
        window manager compiles nothing here; a prefix or exact session
        opened on it compiles the tables on first use, once, through
        the table registry.
        """
        if self.default_mode != "window":
            self._shared.warm()
        return self

    @owned
    def session_ids(self) -> Tuple[str, ...]:
        return tuple(self._sessions)

    @owned
    def session(self, session_id: str) -> StreamSession:
        return self._get(session_id)

    @owned
    def __len__(self) -> int:
        return len(self._sessions)

    @owned
    def __contains__(self, session_id: object) -> bool:
        return session_id in self._sessions

    @owned
    def stats(self) -> Dict[str, int]:
        """Lifetime counters (for the service metrics plane)."""
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
    @owned
    def open(
        self,
        session_id: str,
        mode: Optional[str] = None,
        transport: str = "text",
        token: Optional[str] = None,
    ) -> str:
        """Open a fresh session *session_id*; returns the id.  See
        :meth:`adopt`."""
        entry = {
            "session_id": session_id, "mode": mode, "transport": transport,
            "token": token,
        }
        return self.adopt(entry).session_id

    @owned
    def adopt(self, entry: Mapping[str, object]) -> StreamSession:
        """Admit a session from its durable entry (what
        :meth:`export_session` wrote: the store's recovery and
        spill-revival path), or from the fresh entry :meth:`open`
        builds.  The entry must name its ``session_id``.

        Raises :class:`~repro.errors.StreamError` when the id is live.
        The manager neither caps its table nor evicts to make room:
        the host decides admission before it calls.
        A key the entry lacks keeps a fresh session's value, and keys
        it does not know are ignored, so entries that carry more (as
        older snapshots do) still restore.  The caller is responsible
        for fingerprint-checking the entry against this manager's
        scenario first.
        """
        status = entry.get("status", ACTIVE)
        if status not in (ACTIVE, OVERFLOW):
            raise StreamError(
                f"cannot adopt a session in status {status!r}"
            )
        session_id = entry["session_id"]
        if session_id in self._sessions:
            raise StreamError(f"session {session_id!r} already open")
        mode = entry.get("mode")
        localizer = IncrementalLocalizer(
            mode=mode if mode is not None else self.default_mode,
            max_frontier=self.limits.max_frontier,
            localizer=self._shared,
        )
        session = StreamSession(
            str(session_id),
            localizer,
            str(entry.get("transport", "text")),
            self._catalog,
            self._clock(),
        )
        if entry.get("localizer") is not None:
            localizer.restore_state(entry["localizer"])
        session.status = str(status)
        session.next_chunk = int(entry.get("next_chunk", 0))
        session.token = entry.get("token")  # type: ignore[assignment]
        # an older ctrace entry also carries the parser and the
        # UTF-8 decoder its session built and never fed
        if session.ingester is not None and "ingester" in entry:
            session.ingester.restore_state(entry["ingester"]["decoder"])
        elif session.parser is not None and "parser" in entry:
            buffered, flag = entry["text_decoder"]
            session.decoder.setstate(
                (base64.b64decode(buffered), int(flag))
            )
            session.parser.restore_state(entry["parser"])
        self._sessions[session.session_id] = session
        self._opened += 1
        return session

    @owned
    def export_session(self, session_id: str) -> dict:
        """A session's durable entry as a JSON-able dict: status,
        chunk cursor, ingest state and localizer DP -- the inverse of
        :meth:`adopt`."""
        return self._export(self.session(session_id))

    @owned
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
        return self._feed(self.session(session_id), records, drop_invisible)

    @owned
    def feed_chunk(
        self,
        session_id: str,
        chunk_index: int,
        data: bytes,
        eof: bool = False,
    ) -> Tuple[List[TraceRecord], FeedOutcome]:
        """Decode one chunk through the session's transport, feed the
        records the trace buffer captured, and move ``next_chunk`` past
        *chunk_index*.

        Returns every record the chunk completed (visible or not) and
        the feed's outcome.  The caller checks *chunk_index* against
        ``next_chunk`` first.  A chunk that fails to decode raises and
        leaves the cursor where it was.  Live feeds and WAL replay both
        run through here; that sharing is what makes a recovered
        session bit-identical to an uninterrupted one.
        """
        session = self.session(session_id)
        records = session.ingest(data, eof)
        outcome = self._feed(session, records, drop_invisible=True)
        session.next_chunk = chunk_index + 1
        return records, outcome

    @owned
    def snapshot(self, session_id: str) -> LocalizationResult:
        """The session's current localization (batch-identical)."""
        return self.session(session_id).localizer.snapshot()

    @owned
    def close(self, session_id: str) -> Dict[str, object]:
        """Close a session; returns its summary."""
        return self._retire(self.session(session_id), CLOSED)

    @owned
    def quarantine(self, session_id: str) -> Dict[str, object]:
        """Forcibly retire a session whose input stream proved
        poisonous (repeated feed failures).  Unlike :meth:`close`, the
        terminal status is always ``"quarantined"`` -- even for a
        session already sitting in overflow -- because the reason it
        left the table is the poison, not the frontier bound."""
        session = self.session(session_id)
        # _retire preserves a non-ACTIVE status; quarantine must win
        # over overflow, so force the terminal state here
        session.status = ACTIVE
        return self._retire(session, QUARANTINED)

    @owned
    def evict_idle(self, now: Optional[float] = None) -> Tuple[str, ...]:
        """Retire sessions idle for longer than ``idle_timeout_s``.

        Every eviction runs through here: the host's idle sweep, and
        the one its admission runs before it refuses.  With a
        ``spill`` sink, each evicted session's durable entry is handed
        to it *before* the session is retired, so the sink can persist
        the state instead of losing it.
        """
        if now is None:
            now = self._clock()
        idle = [
            s
            for s in self._sessions.values()
            if now - s.last_active > self.limits.idle_timeout_s
        ]
        for session in idle:
            if self._spill is not None:
                self._spill(self._export(session))
            self._retire(session, EVICTED)
        return tuple(session.session_id for session in idle)

    # ------------------------------------------------------------------
    def _get(self, session_id: str) -> StreamSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise StreamError(f"unknown session {session_id!r}")
        return session

    @staticmethod
    def _export(session: StreamSession) -> dict:
        """The durable entry of *session*."""
        entry = {
            "session_id": session.session_id,
            "mode": session.mode,
            "status": session.status,
            "localizer": session.localizer.export_state(),
            "transport": session.transport,
            "next_chunk": session.next_chunk,
        }
        if session.token is not None:
            entry["token"] = session.token
        if session.ingester is not None:
            entry["ingester"] = {"decoder": session.ingester.export_state()}
        else:
            buffered, flag = session.decoder.getstate()
            entry["text_decoder"] = [
                base64.b64encode(buffered).decode("ascii"), flag
            ]
            entry["parser"] = session.parser.export_state()
        return entry

    def _feed(
        self,
        session: StreamSession,
        records: Iterable[Observable],
        drop_invisible: bool,
    ) -> FeedOutcome:
        """Advance *session* over *records*."""
        session.last_active = self._clock()
        if session.status == OVERFLOW:
            return self._outcome(session, consumed=0)
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
        session.last_active = self._clock()
        self._feeds += 1
        self._records += consumed
        return self._outcome(session, consumed=consumed)

    def _outcome(self, session: StreamSession, consumed: int) -> FeedOutcome:
        return FeedOutcome(
            session_id=session.session_id,
            consumed=consumed,
            status=session.status,
            observed_length=session.localizer.observed_length,
            frontier_size=session.localizer.frontier_size,
        )

    def _retire(
        self, session: StreamSession, status: str
    ) -> Dict[str, object]:
        """Retire *session*; returns its summary: the CLOSE reply's
        fields plus the session id, ``mode`` and ``peak_frontier``."""
        result = session.localizer.snapshot()
        final = status if session.status == ACTIVE else session.status
        session.status = final
        self._sessions.pop(session.session_id, None)
        self._retired[final] = self._retired.get(final, 0) + 1
        return {
            "session_id": session.session_id,
            "status": final,
            "records": session.localizer.observed_length,
            "observed_length": session.localizer.observed_length,
            "consistent_paths": result.consistent_paths,
            "total_paths": result.total_paths,
            "next_chunk": session.next_chunk,
            "mode": session.mode,
            "peak_frontier": session.localizer.peak_frontier,
        }
