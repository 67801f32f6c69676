"""Per-shard durable session state: the :class:`SessionStore` facade.

One ``SessionStore`` owns one shard directory and composes its
durability mechanisms:

* **WAL** (:mod:`repro.store.wal`) -- every OPEN/FEED/CLOSE is logged
  *before* it is applied, so an acknowledged operation is never lost
  to a crash (ack-after-durable).
* **Snapshots** (:mod:`repro.store.snapshot`) -- every
  ``snapshot_every`` feeds, the shard's full session state is
  checkpointed so recovery replays a bounded tail instead of the
  whole history.
* **Compaction** -- segments fully covered by a snapshot are deleted
  after it lands; the log's size is bounded by snapshot cadence, not
  by uptime.
* **Recovery** -- :func:`recover_directory` reads a shard directory
  once: the newest valid snapshot and the WAL's trusted prefix.  A
  start repairs the directory from that same read; ``repro store
  verify`` only reports it.

It also holds the **spill map**: sessions the idle sweeper evicts are
captured here instead of discarded, folded into the next snapshot, and
transparently revived when the client comes back.

All mutating calls happen in the owning shard's ops, which the server
runs one at a time on its event loop, so the store needs no locking of
its own.  A store belongs to the thread that built it (the server's
loop thread); under ``python -X dev`` a method called from any other
thread raises :class:`RuntimeError` (:func:`repro.owner.owned`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import StoreError
from repro.owner import owned
from repro.store import snapshot as snapshot_mod
from repro.store import wal


@dataclass(frozen=True)
class RecoveredShard:
    """Everything one shard directory yields at startup.

    Attributes
    ----------
    snapshot:
        The newest valid snapshot payload, or ``None`` (cold start or
        every snapshot corrupt -- the WAL alone rebuilds the state).
    snapshot_lsn:
        The WAL position the snapshot covers (0 without a snapshot).
    tail:
        Trusted WAL records with ``lsn > snapshot_lsn``, in order: the
        operations the snapshot has not folded in yet.
    next_lsn:
        Where the writer must continue appending.
    diagnostics:
        Human-readable notes about everything that was skipped or
        truncated on the way.
    scan:
        The WAL scan, which also says where its trusted prefix ends
        on disk (:func:`repro.store.wal.repair_wal` applies it).
    """

    snapshot: Optional[dict]
    snapshot_lsn: int
    tail: Tuple[wal.WalRecord, ...]
    next_lsn: int
    diagnostics: Tuple[str, ...]
    scan: wal.WalScan


def recover_directory(directory: Union[str, Path]) -> RecoveredShard:
    """Read one shard directory into a :class:`RecoveredShard`, without
    changing it: the newest snapshot that parses and CRC-verifies, and
    the WAL records past it.

    The server restores the snapshot's sessions and replays the tail
    through the *same* apply path live traffic takes, which is what
    makes a recovered session bit-identical to an uninterrupted one:
    the incremental pipeline is chunk-invariant, so "snapshot state +
    replayed feeds" and "all feeds from the start" land on the same
    frontier.
    """
    snap_lsn, payload, snap_diags = snapshot_mod.latest_snapshot(directory)
    scan = wal.scan_wal(directory)
    covered = snap_lsn if snap_lsn is not None else 0
    return RecoveredShard(
        snapshot=payload,
        snapshot_lsn=covered,
        tail=tuple(r for r in scan.records if r.lsn > covered),
        next_lsn=max(scan.next_lsn, covered + 1),
        diagnostics=snap_diags + scan.diagnostics,
        scan=scan,
    )


class SessionStore:
    """Durable state of one debug-server shard.

    Parameters
    ----------
    directory:
        The shard's data directory (created if missing).
    fsync:
        WAL fsync policy: ``"always"``, ``"interval"``, or ``"off"``.
    fsync_interval_s:
        Under the ``interval`` policy, an append fsyncs the WAL once
        this long has passed since the last fsync; the appends after
        it wait for the next such append, a snapshot's rotation or
        :meth:`close` (see :class:`~repro.store.wal.WalWriter`).
    snapshot_every:
        Feeds between automatic snapshots (``0`` disables cadence
        snapshots; explicit ones still work).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        snapshot_every: int = 256,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval_s = fsync_interval_s
        self.snapshot_every = snapshot_every
        #: The building thread, which ``-X dev`` checks.
        self._owner = threading.get_ident()
        self._writer: Optional[wal.WalWriter] = None
        self._spilled: Dict[str, dict] = {}
        self._feeds_since_snapshot = 0
        # lifetime counters (merged into the shard's metrics)
        self.snapshots_written = 0
        self.snapshot_bytes = 0
        self.segments_compacted = 0
        self.spills = 0
        self.revivals = 0
        self.truncated_bytes = 0

    # ------------------------------------------------------------------
    # lifecycle
    @owned
    def open(self) -> RecoveredShard:
        """Read the directory once (:func:`recover_directory`), repair
        it to the trusted prefix that read found, and start the WAL
        writer after it.  Must be called exactly once, before any
        logging."""
        if self._writer is not None:
            raise StoreError("store already open")
        recovered = recover_directory(self.directory)
        # make disk match the trusted prefix before the first append:
        # cut the torn tail and drop untrusted segments, so the writer
        # can never collide with (or be confused by) a crashed
        # process's leavings
        wal.repair_wal(recovered.scan)
        self.truncated_bytes = recovered.scan.truncated_bytes
        self._writer = wal.WalWriter(
            self.directory,
            fsync=self.fsync,
            fsync_interval_s=self.fsync_interval_s,
            next_lsn=recovered.next_lsn,
        )
        snap = recovered.snapshot
        if snap is not None:
            for state in snap.get("spilled", ()):
                self._spilled[state["session_id"]] = state
        return recovered

    @owned
    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()

    @property
    def last_lsn(self) -> int:
        return self._writer.last_lsn if self._writer is not None else 0

    # ------------------------------------------------------------------
    # WAL logging (called before the in-memory apply)
    @owned
    def log_open(
        self,
        session_id: str,
        mode: str,
        transport: str,
        token: Optional[str] = None,
    ) -> int:
        """Log an OPEN; its payload is the fresh session's entry, and
        carries the client's open token when there is one."""
        import json

        entry = {
            "session_id": session_id, "mode": mode, "transport": transport,
        }
        if token is not None:
            entry["token"] = token
        return self._append(
            wal.WAL_OPEN,
            json.dumps(entry, separators=(",", ":"), sort_keys=True).encode(
                "utf-8"
            ),
        )

    @owned
    def log_feed(
        self, session_id: str, chunk_index: int, data: bytes, eof: bool
    ) -> int:
        # the WAL logs a FEED by session id, as protocol version 4's
        # FEED payload did (the wire now names the session by handle):
        # :func:`~repro.server.protocol.encode_feed_payload` writes
        # it, and replay reads it back with ``decode_feed_payload_ex``
        from repro.server.protocol import encode_feed_payload

        lsn = self._append(
            wal.WAL_FEED,
            encode_feed_payload(session_id, chunk_index, data, eof=eof),
        )
        self._feeds_since_snapshot += 1
        return lsn

    @owned
    def log_close(self, session_id: str) -> int:
        import json

        return self._append(
            wal.WAL_CLOSE,
            json.dumps(
                {"session_id": session_id},
                separators=(",", ":"),
                sort_keys=True,
            ).encode("utf-8"),
        )

    def _append(self, rec_type: int, payload: bytes) -> int:
        if self._writer is None:
            raise StoreError("store is not open")
        return self._writer.append(rec_type, payload)

    # ------------------------------------------------------------------
    # snapshots + compaction
    @owned
    def should_snapshot(self) -> bool:
        return (
            self.snapshot_every > 0
            and self._feeds_since_snapshot >= self.snapshot_every
        )

    @owned
    def write_snapshot(
        self,
        sessions: List[dict],
        fingerprint: str,
        scenario: str,
        mode: str,
        session_counter: int = 0,
    ) -> Path:
        """Checkpoint the shard: live *sessions* plus the spill map.

        Rotates the WAL so compaction can drop every covered segment,
        then prunes old snapshots and compacts with the LSN just
        written.  *session_counter* is written as given and read by
        nothing (see :mod:`repro.store.snapshot`).
        """
        if self._writer is None:
            raise StoreError("store is not open")
        lsn = self._writer.last_lsn
        payload = {
            "format": snapshot_mod.SNAPSHOT_FORMAT,
            "fingerprint": fingerprint,
            "scenario": scenario,
            "mode": mode,
            "session_counter": session_counter,
            "wal_lsn": lsn,
            "sessions": sessions,
            "spilled": sorted(
                self._spilled.values(), key=lambda s: s["session_id"]
            ),
        }
        path = snapshot_mod.write_snapshot(self.directory, payload, lsn)
        self._writer.rotate()
        self._feeds_since_snapshot = 0
        self.snapshots_written += 1
        self.snapshot_bytes += path.stat().st_size
        snapshot_mod.prune_snapshots(self.directory)
        self.segments_compacted += len(compact_directory(self.directory, lsn))
        return path

    # ------------------------------------------------------------------
    # eviction spill
    @owned
    def spill(self, state: dict) -> None:
        """Park an evicted session's captured state until it is revived
        or folded into the next snapshot."""
        self._spilled[state["session_id"]] = state
        self.spills += 1

    @owned
    def peek_spilled(self, session_id: str) -> Optional[dict]:
        """A spilled session's state, left parked."""
        return self._spilled.get(session_id)

    @owned
    def take_spilled(self, session_id: str) -> Optional[dict]:
        """Claim a spilled session's state (revival path)."""
        state = self._spilled.pop(session_id, None)
        if state is not None:
            self.revivals += 1
        return state

    @owned
    def drop_spilled(self, session_id: str) -> None:
        self._spilled.pop(session_id, None)

    @owned
    def spilled_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._spilled))

    # ------------------------------------------------------------------
    @owned
    def stats(self) -> Dict[str, object]:
        writer = self._writer.stats() if self._writer is not None else {}
        return {
            "wal_appends": writer.get("appends", 0),
            "wal_bytes_appended": writer.get("bytes_appended", 0),
            "wal_fsyncs": writer.get("fsyncs", 0),
            "wal_rotations": writer.get("rotations", 0),
            "wal_next_lsn": writer.get("next_lsn", 0),
            "wal_segments": len(wal.list_segments(self.directory)),
            "snapshots_written": self.snapshots_written,
            "snapshot_bytes": self.snapshot_bytes,
            "segments_compacted": self.segments_compacted,
            "spilled_sessions": len(self._spilled),
            "spills": self.spills,
            "revivals": self.revivals,
            "truncated_bytes": self.truncated_bytes,
        }


def compact_directory(directory: Union[str, Path], lsn: int) -> List[str]:
    """Delete the WAL segments of a shard directory that a snapshot
    covering *lsn* covers -- the one compaction rule, run by the live
    store with the LSN it just checkpointed and offline by ``repro
    store compact`` with the newest snapshot's.

    A segment is covered when the *next* segment starts at or before
    ``lsn + 1``, so that every record in it is at or below *lsn*; the
    last segment is never deleted.  Returns the names of the removed
    segments.
    """
    removed: List[str] = []
    segments = wal.list_segments(directory)
    for path, successor in zip(segments, segments[1:]):
        if wal.segment_first_lsn(successor) > lsn + 1:
            break
        try:
            path.unlink()
            removed.append(path.name)
        except OSError:  # pragma: no cover - raced deletion
            pass
    return removed


__all__ = [
    "RecoveredShard",
    "SessionStore",
    "compact_directory",
    "recover_directory",
]
