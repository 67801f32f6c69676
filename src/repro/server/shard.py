"""The shard core of the debug server: everything the server runs on a shard.

A :class:`Shard` owns one shard's session manager and optional session
store, and holds the whole rule for when an op becomes durable: OPEN
applies then logs, FEED logs then applies, a quarantine logs a CLOSE,
cadence snapshots bound the WAL tail, and a failed write degrades the
shard to memory-only for good.  It also spills and revives idle
sessions, answers an OPEN whose token opened the session it names --
live or spilled -- with ``resumed: true``, recovers (the newest
snapshot, then the WAL tail through :meth:`~repro.stream.session.
SessionManager.feed_chunk`, the apply path live FEEDs take) and shuts
down.  It never refuses for capacity: the server decides whether a
request may add a live session before it calls the op
(:meth:`~repro.server.server.DebugServer._make_room`).

The shard numbers the **incarnations** of the sessions it holds, in
memory only: a fresh OPEN or a recovery adoption makes a new one, and
a resume, a spill and a revival keep it.  An OPEN reply hands out a
handle for the incarnation it reached, and a FEED, SNAPSHOT or CLOSE
given an incarnation acts only on that one: a late request for an
id's earlier incarnation is answered ``unknown-session`` and has no
effect.

Each op method answers one request with ``(frame type, payload)``.
The core has no transport: the asyncio server calls its ops one at a
time on the event loop, and a test can drive a shard, crash it and
recover another from the same directory without an event loop.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro import perf
from repro.errors import (
    SelectionError,
    StoreError,
    StoreWriteError,
    StreamError,
)
from repro.server import protocol
from repro.store import wal
from repro.store.inspect import shard_directory
from repro.store.store import SessionStore
from repro.stream.session import SessionLimits, SessionManager, StreamSession

if TYPE_CHECKING:  # the server module imports this one
    from repro.server.server import ServeContext, ServerConfig

#: One reply: ``(frame type, payload)``.
Reply = Tuple[int, bytes]

#: What an OPEN of a session id does (:meth:`Shard._claim`): open a
#: fresh session, resume the live one, revive the spilled one, or be
#: refused ``session-exists`` or ``unknown-session``.
_FRESH, _LIVE, _SPILLED, _EXISTS, _UNKNOWN = (
    "fresh", "live", "spilled", "exists", "unknown"
)

#: Consecutive poisonous feeds (apply-time crashes that are not
#: ordinary stream errors) a session survives before the shard
#: quarantines it -- retiring it with a structured
#: ``session-quarantined`` error instead of letting a client retry a
#: payload that can never succeed.
QUARANTINE_AFTER = 3


def _error(code: str, message: str, **extra: object) -> Reply:
    return protocol.ERROR, protocol.error_payload(code, message, **extra)


def _unknown_session(sid: str) -> Reply:
    return _error(
        "unknown-session",
        f"session {sid!r} is not open on this server "
        "(closed, evicted, or lost to a restart)",
    )


@dataclass(frozen=True)
class ShardRecovery:
    """The one report of :meth:`Shard.recover`: live plus revivable
    spilled sessions, the WAL records replayed, and the store's
    diagnostics, each prefixed with the shard's directory name."""

    sessions: int
    replayed_records: int
    diagnostics: Tuple[str, ...]


class Shard:
    """Shard *index* of a server with *config* serving *context*; a
    ``config.data_dir`` makes it durable.  The ops count into
    *metrics* and raise alerts as ``alert(kind, **fields)``.
    """

    def __init__(
        self,
        index: int,
        context: "ServeContext",
        config: "ServerConfig",
        metrics: Optional[perf.PerfCounters] = None,
        alert: Optional[Callable[..., None]] = None,
    ) -> None:
        self.index = index
        self.context = context
        self.config = config
        self.metrics = metrics if metrics is not None else perf.PerfCounters()
        self._alert = alert if alert is not None else (lambda kind, **_: None)
        self.manager = SessionManager(
            context.interleaved,
            context.traced,
            mode=context.mode,
            limits=SessionLimits(
                max_frontier=context.max_frontier,
                idle_timeout_s=config.idle_timeout_s,
            ),
            catalog=context.catalog,
            spill=self._spill,
        )
        # every shard owns a manager over the same scenario; warming at
        # construction resolves the compiled localization tables
        # through the content-addressed registry before the listener
        # accepts -- the first shard compiles, every later shard gets
        # the same read-only tables back by fingerprint.  A window
        # server compiles nothing here: its sessions never read them
        self.manager.warm()
        self.store: Optional[SessionStore] = None
        if config.data_dir is not None:
            self.store = SessionStore(
                shard_directory(config.data_dir, index),
                fsync=config.fsync,
                fsync_interval_s=config.fsync_interval_s,
                snapshot_every=config.snapshot_every,
            )
        #: Content hash of the served tables, stamped into every
        #: snapshot and checked against it on recovery.
        self.fingerprint = self.manager.shared_localizer.fingerprint()
        #: Set when a physical store write fails: the shard keeps
        #: serving from memory but stops promising durability (and
        #: stops touching the broken store).
        self.degraded = False
        #: The incarnation of each session id a handle was issued for,
        #: while the shard holds that session live or spilled (in
        #: memory only; numbered on first ask, see :meth:`incarnation`).
        self._incarnations: Dict[str, int] = {}
        self._last_incarnation = 0

    @property
    def durable(self) -> bool:
        """Whether this shard still honors the acked-means-durable
        contract (a store is attached and no write has failed)."""
        return self.store is not None and not self.degraded

    def _claim(self, sid: str, token: Optional[str], attach: bool) -> str:
        """What an OPEN of *sid* carrying *token* does, or with
        *attach* an ATTACH.  A session the shard holds, live or
        spilled, is resumed for an OPEN that carries the token it was
        opened with and for an ATTACH that carries that token or none;
        any other OPEN of it is refused ``session-exists``, any other
        ATTACH ``unknown-session``.  An OPEN of an id the shard does
        not hold opens it; an ATTACH of one is refused."""
        if sid in self.manager:
            held, claim = self.manager.session(sid).token, _LIVE
        else:
            entry = self.store.peek_spilled(sid) if self.durable else None
            if entry is None:
                return _UNKNOWN if attach else _FRESH
            held, claim = entry.get("token"), _SPILLED
        ours = token == held if token is not None else attach
        if not ours:
            return _UNKNOWN if attach else _EXISTS
        return claim

    def adds_session(
        self, sid: str, token: Optional[str], attach: bool = False
    ) -> bool:
        """Whether an OPEN of *sid* carrying *token* would add a live
        session: open a fresh one or revive a spilled one.  An ATTACH
        never does.  The server makes room before it runs such an op."""
        return not attach and self._claim(sid, token, attach) in (
            _FRESH, _SPILLED,
        )

    def incarnation(self, sid: str) -> int:
        """The incarnation of the session the shard holds under *sid*,
        numbered when first asked for."""
        number = self._incarnations.get(sid)
        if number is None:
            self._last_incarnation += 1
            number = self._incarnations[sid] = self._last_incarnation
        return number

    def holds(self, sid: str, incarnation: int) -> bool:
        """Whether the shard still holds incarnation *incarnation* of
        *sid*, live or spilled."""
        return self._incarnations.get(sid) == incarnation and (
            sid in self.manager or self.spilled(sid)
        )

    # -- ops -----------------------------------------------------------
    def open(
        self,
        sid: str,
        mode: Optional[str] = None,
        transport: str = "text",
        token: Optional[str] = None,
        attach: bool = False,
        handle_for: Callable[[int], int] = lambda incarnation: incarnation,
    ) -> Reply:
        """Open *sid*, resume it, or with *attach* only resume it (see
        :meth:`_claim`).  An ATTACH leaves a spilled session spilled:
        the request that names its handle next revives it, and a CLOSE
        retires it without taking a slot.  The reply carries
        ``handle_for(incarnation)`` as its handle: the server's handle
        on the connection, and the incarnation itself by default."""
        claim = self._claim(sid, token, attach)
        if claim == _UNKNOWN:
            return _unknown_session(sid)
        if claim == _EXISTS:
            return _error("session-exists", f"session {sid!r} already open")
        if claim == _SPILLED and attach:
            entry = self.store.peek_spilled(sid)
            transport = str(entry.get("transport", "text"))
            mode = str(entry.get("mode") or self.context.mode)
            next_chunk = int(entry.get("next_chunk", 0))
        else:
            try:
                if claim == _SPILLED:
                    self._revive(sid)
                elif claim == _FRESH:
                    self._incarnations.pop(sid, None)
                    self.manager.open(
                        sid, mode=mode, transport=transport, token=token
                    )
            except SelectionError as exc:
                return _error("bad-request", str(exc))
            session = self.manager.session(sid)
            transport, mode = session.transport, session.mode
            next_chunk = session.next_chunk
        if claim == _FRESH and self.durable:
            # logged *after* the apply: a crash in between loses only
            # an un-acked open, which the client simply retries
            self._append(
                lambda: self.store.log_open(sid, mode, transport, token=token)
            )
        self.metrics.add("opens_total")
        body: Dict[str, object] = {
            "shard": self.index,
            "handle": handle_for(self.incarnation(sid)),
            "transport": transport,
            "mode": mode,
        }
        if claim != _FRESH:
            # a spilled session, the one this OPEN's lost first attempt
            # made, or an attach: next_chunk tells the client where the
            # durable high-watermark is, so it replays only the tail
            body.update(resumed=True, next_chunk=next_chunk)
        return protocol.OK, protocol.encode_reply(protocol.OPEN_SESSION, body)

    def feed(
        self,
        sid: str,
        chunk_index: int,
        data: bytes,
        eof: bool = False,
        incarnation: Optional[int] = None,
    ) -> Reply:
        """Apply chunk *chunk_index* of *sid* -- of its incarnation
        *incarnation* only, when given, as for :meth:`snapshot` and
        :meth:`close`."""
        session = self._session(sid, incarnation)
        if session is None:
            return _unknown_session(sid)
        if chunk_index < session.next_chunk:
            # a retransmit of an already-applied chunk (the response
            # was lost); acknowledge without re-feeding
            return self._fed(session, chunk_index, duplicate=True)
        if chunk_index > session.next_chunk:
            return _error(
                "chunk-gap",
                f"expected chunk {session.next_chunk}, got {chunk_index}",
                expected=session.next_chunk,
            )
        if self.durable:
            # log-before-apply: once the client sees this chunk's OK,
            # the chunk is on disk.  A crash between the append and the
            # apply is safe -- replay applies it, the un-acked client
            # retransmits, and idempotency answers with a duplicate-ack
            self._append(
                lambda: self.store.log_feed(sid, chunk_index, data, eof)
            )
        try:
            records, outcome = self.manager.feed_chunk(
                sid, chunk_index, data, eof
            )
        except Exception as exc:  # noqa: BLE001 - poison payload
            return self._poisoned(session, exc)
        session.failures = 0
        if session.transport == "ctrace":
            self.metrics.add("compressed_wire_bytes", len(data))
            if records:
                from repro.compress.encoder import uncompressed_capture_bits

                self.metrics.add(
                    "compressed_raw_bits", uncompressed_capture_bits(records)
                )
        self.metrics.add("feeds_total")
        self.metrics.add("records_fed_total", outcome.consumed)
        reply = self._fed(
            session, chunk_index, consumed=outcome.consumed,
            records=len(records),
        )
        if self.durable and self.store.should_snapshot():
            try:
                self.checkpoint()
            except StoreWriteError as exc:
                # a failed checkpoint costs replay time, not data: the
                # WAL still has everything, so alert and keep serving
                self.metrics.add("snapshot_failures_total")
                self._alert(
                    "snapshot-failed",
                    shard=self.index,
                    reason=str(exc),
                    path=exc.path,
                )
        return reply

    @staticmethod
    def _fed(
        session: StreamSession,
        chunk_index: int,
        duplicate: bool = False,
        consumed: int = 0,
        records: int = 0,
    ) -> Reply:
        """The FEED reply, read from the session after the apply."""
        return protocol.OK, protocol.encode_reply(
            protocol.FEED_CHUNK,
            {
                "chunk_index": chunk_index,
                "duplicate": duplicate,
                "consumed": consumed,
                "records": records,
                "status": session.status,
                "observed_length": session.localizer.observed_length,
                "frontier_size": session.localizer.frontier_size,
                "next_chunk": session.next_chunk,
            },
        )

    def _poisoned(self, session: StreamSession, exc: Exception) -> Reply:
        """Answer a feed whose apply crashed in a way no retry can fix.

        Strikes accumulate per session; at :data:`QUARANTINE_AFTER`
        the session is forcibly retired with a terminal
        ``session-quarantined`` error, because letting a client retry a
        poisonous payload forever is an availability bug, not fault
        tolerance."""
        sid = session.session_id
        session.failures += 1
        if session.failures < QUARANTINE_AFTER:
            return _error(
                "poison-payload",
                f"feed to session {sid!r} failed to apply: {exc}",
                failures=session.failures,
                quarantine_after=QUARANTINE_AFTER,
            )
        self.manager.quarantine(sid)
        # the logged close retires the session at replay time too --
        # otherwise recovery would faithfully rebuild the poisoned
        # session and the next feed would re-strike it
        self._retired(sid)
        self.metrics.add("sessions_quarantined_total")
        self._alert(
            "session-quarantined",
            shard=self.index,
            session_id=sid,
            reason=str(exc),
        )
        return _error(
            "session-quarantined",
            f"session {sid!r} was quarantined after "
            f"{session.failures} consecutive poisonous feeds "
            f"(last: {exc})",
        )

    def snapshot(self, sid: str, incarnation: Optional[int] = None) -> Reply:
        session = self._session(sid, incarnation)
        if session is None:
            return _unknown_session(sid)
        result = self.manager.snapshot(sid)
        return protocol.OK, protocol.encode_reply(
            protocol.SNAPSHOT,
            {
                "consistent_paths": result.consistent_paths,
                "total_paths": result.total_paths,
                "status": session.status,
                "observed_length": session.localizer.observed_length,
                # the chunk cursor lets a client detect a server that
                # recovered without its acked tail (e.g. the shard
                # degraded before a crash) and replay it
                "next_chunk": session.next_chunk,
            },
        )

    def close(self, sid: str, incarnation: Optional[int] = None) -> Reply:
        if self._session(sid, incarnation) is None:
            return _unknown_session(sid)
        summary = self.manager.close(sid)
        self._retired(sid)
        self.metrics.add("closes_total")
        return protocol.OK, protocol.encode_reply(
            protocol.CLOSE_SESSION, summary
        )

    # -- durability ----------------------------------------------------
    def _append(self, append: Callable[[], int]) -> None:
        """Run one store append; a physical write failure degrades the
        shard instead of failing the request."""
        started = time.perf_counter()
        try:
            append()
        except StoreWriteError as exc:
            self._degrade(exc)
            return
        self.metrics.observe("wal_append_s", time.perf_counter() - started)

    def _retired(self, sid: str) -> None:
        """The session *sid* left the shard: forget its incarnation,
        and log its CLOSE on a durable shard."""
        self._incarnations.pop(sid, None)
        if self.durable:
            self.store.drop_spilled(sid)
            self._append(lambda: self.store.log_close(sid))

    def _degrade(self, exc: StoreWriteError) -> None:
        """Flip the shard into memory-only mode after a store write
        failure.  Every session stays live, but durability promises
        stop, the server's health section reports ``degraded``, and an
        alert records what broke.  Sticky by design: the WAL never
        resynchronizes past a torn record, so resuming appends could
        silently strand acked data behind an unreadable tail."""
        if self.degraded:
            return
        self.degraded = True
        self.metrics.add("wal_degraded_total")
        self._alert(
            "wal-degraded",
            shard=self.index,
            reason=str(exc),
            path=exc.path,
            lsn=exc.lsn,
        )

    def _spill(self, entry: dict) -> None:
        """The manager's eviction sink.  A durable shard parks the
        evicted session's entry in its store, folded into the next
        snapshot and revived on the session's next request; a
        memory-only or degraded shard lets it go."""
        if self.durable:
            self.store.spill(entry)
        else:
            self._incarnations.pop(entry["session_id"], None)

    def spilled(self, sid: str, incarnation: Optional[int] = None) -> bool:
        """Whether *sid* -- its incarnation *incarnation*, when given
        -- is parked in this shard's store, so that a request for it
        revives it."""
        return (
            self.durable
            and self.store.peek_spilled(sid) is not None
            and (
                incarnation is None
                or self._incarnations.get(sid) == incarnation
            )
        )

    def _session(
        self, sid: str, incarnation: Optional[int] = None
    ) -> Optional[StreamSession]:
        """The live session *sid*, revived first if it was spilled;
        ``None`` when the shard holds neither, or when *incarnation*
        is given and names another incarnation of *sid*.  See
        :meth:`_revive`."""
        if (
            incarnation is not None
            and self._incarnations.get(sid) != incarnation
        ):
            return None
        if sid in self.manager:
            return self.manager.session(sid)
        return self._revive(sid)

    def _revive(self, sid: str) -> Optional[StreamSession]:
        """Bring a spilled session back live; ``None`` when it is not
        spilled.  The entry leaves the spill map only once it is live,
        so an adopt that raises leaves it parked."""
        entry = self.store.peek_spilled(sid) if self.durable else None
        if entry is None:
            return None
        session = self.manager.adopt(entry)
        self.store.take_spilled(sid)
        return session

    def checkpoint(self) -> None:
        """Snapshot every live session and the spill map."""
        self.store.write_snapshot(
            [
                self.manager.export_session(sid)
                for sid in sorted(self.manager.session_ids())
            ],
            fingerprint=self.fingerprint,
            scenario=self.context.name,
            mode=self.context.mode,
        )

    def shutdown(self) -> None:
        """The drain path's last step.  A durable shard checkpoints
        and seals its WAL without retiring its sessions -- they come
        back on the next start; a write failure here degrades instead
        of raising, since the WAL already holds everything an acked
        request needs.  A memory-only or degraded shard (its store
        cannot be trusted with another write) retires every session."""
        if not self.durable:
            for sid in self.manager.session_ids():
                self.manager.close(sid)
            return
        try:
            try:
                self.checkpoint()
            finally:
                self.store.close()
        except StoreWriteError as exc:
            self._degrade(exc)

    def recover(self) -> ShardRecovery:
        """Rebuild the shard from its store: adopt the newest valid
        snapshot, then replay the WAL tail through
        :meth:`SessionManager.feed_chunk`, the apply path live FEEDs
        take.  Every durable session comes back, since each was
        admitted once, whatever the cap of the server now starting.
        Refuses a snapshot of another scenario.

        A directory that holds one id twice (a live session and a
        spilled entry of the same id, or a second WAL OPEN of a live
        id) keeps the later incarnation: a live snapshot entry drops
        the spilled entry of its id, and a WAL OPEN first retires the
        live session or drops the spilled entry it names."""
        recovered = self.store.open()
        snap = recovered.snapshot or {}
        if snap.get("fingerprint") not in (None, "", self.fingerprint):
            raise StoreError(
                f"shard {self.index} snapshot was taken on a different "
                f"scenario (fingerprint {snap['fingerprint']!r})"
            )
        for entry in snap.get("sessions", ()):
            self.store.drop_spilled(entry["session_id"])
            self.manager.adopt(entry)
        for record in recovered.tail:
            self._replay(record)
        name = self.store.directory.name
        return ShardRecovery(
            sessions=len(self.manager) + len(self.store.spilled_ids()),
            replayed_records=len(recovered.tail),
            diagnostics=tuple(
                f"{name}: {diagnostic}"
                for diagnostic in recovered.diagnostics
            ),
        )

    def _replay(self, record: wal.WalRecord) -> None:
        """Apply one trusted WAL tail record at recovery time."""
        if record.rec_type == wal.WAL_OPEN:
            # the OPEN record is the fresh session's entry, and the
            # later incarnation of its id
            entry = json.loads(record.payload.decode("utf-8"))
            sid = entry["session_id"]
            if sid in self.manager:
                self.manager.close(sid)
            self.store.drop_spilled(sid)
            self.manager.adopt(entry)
            return
        if record.rec_type == wal.WAL_FEED:
            # a carried deadline is dropped: replay must not re-enforce
            # a long-expired budget
            sid, chunk_index, eof, data, _ = (
                protocol.decode_feed_payload_ex(record.payload)
            )
            session = self._session(sid)
            if session is None or chunk_index != session.next_chunk:
                # orphaned or already-folded feed: nothing to redo
                return
            try:
                self.manager.feed_chunk(sid, chunk_index, data, eof)
            except Exception:  # noqa: BLE001 - incl. poison payloads
                # a feed that crashed the apply live (and was logged
                # before the crash surfaced) must not crash recovery;
                # the quarantine close that followed it retires the
                # session a few records later in the same tail
                pass
        elif record.rec_type == wal.WAL_CLOSE:
            body = json.loads(record.payload.decode("utf-8"))
            sid = str(body["session_id"])
            try:
                self.manager.close(sid)
            except StreamError:  # not live: retire it from the spill map
                self.store.drop_spilled(sid)


__all__ = ["Reply", "Shard", "ShardRecovery"]
