"""Append-only write-ahead log of session operations.

Each shard of the debug server owns one WAL directory: a sequence of
segment files, each holding CRC-framed records.  The record layout
reuses the SYNC + CRC-16 discipline of the compressed-trace frames
(:mod:`repro.compress.framing`), widened for durability (64-bit LSNs,
32-bit lengths)::

    +------+------+------+---------+---------+-----------+-------+
    | 0xA5 | 0xC3 | type | lsn(64) | len(32) | payload.. | crc16 |
    +------+------+------+---------+---------+-----------+-------+

``crc16`` (CCITT-FALSE, :mod:`repro.runtime.checksum`) covers type,
lsn, len, and payload.  LSNs are assigned by the writer, start at 1,
and increase by exactly 1 per record across segment boundaries.

Unlike the trace decoder, a WAL reader **never resynchronizes**: the
log's only legal failure is a torn tail (the machine died mid-write),
so the first byte that does not parse -- bad sync, truncated header,
CRC mismatch, or a non-consecutive LSN -- ends the log.  Everything
before it is trusted, everything after it is discarded.  Recovery is
therefore prefix-consistent by construction.

Segment files are named ``wal-<first-lsn>.seg``; a writer always opens
a *fresh* segment (it never appends to a file a previous process wrote,
so a torn tail can never be buried mid-segment), and rotation happens
on size or at snapshot time so compaction can drop whole files.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import StoreError, StoreWriteError
from repro.runtime.checksum import crc16

#: The two bytes that open every record: the compressed-trace frames'
#: sync word (:data:`repro.compress.framing.SYNC`), kept here so that a
#: server that logs sessions never imports the trace codec.
SYNC = b"\xa5\xc3"

#: Process-wide injectable I/O fault gate (the chaos disk plane).
#: ``None`` -- the default -- costs one attribute read per append.  A
#: gate sees every physical WAL write and fsync *before* it happens:
#: ``on_append(path, lsn, record)`` may raise :class:`OSError` (the
#: append fails with nothing written, e.g. ENOSPC) or return a strict
#: prefix of *record* (the prefix is written -- a torn append -- and
#: the append then fails); ``on_fsync(path)`` may raise
#: :class:`OSError` to fail a sync.  Snapshot writes consult the same
#: gate via ``on_snapshot(path)`` (see :mod:`repro.store.snapshot`).
_io_gate = None


def install_io_gate(gate) -> object:
    """Install (or, with ``None``, remove) the process-wide store I/O
    fault gate; returns the previously installed gate."""
    global _io_gate
    previous = _io_gate
    _io_gate = gate
    return previous


def installed_io_gate():
    return _io_gate

#: WAL record types.
WAL_OPEN = 1  #: JSON ``{"session_id", "mode", "transport"}``
WAL_FEED = 2  #: the wire protocol's binary FEED_CHUNK payload, verbatim
WAL_CLOSE = 3  #: JSON ``{"session_id"}``
WAL_SNAPSHOT = 4  #: JSON shard snapshot (only in ``.snap`` files)

#: Fixed per-record overhead: sync(2) + type(1) + lsn(8) + len(4) +
#: crc(2).
RECORD_OVERHEAD_BYTES = 17

#: Sanity cap on a single record's payload (a parsed length above this
#: is treated as corruption, not an allocation request).
MAX_RECORD_PAYLOAD = 1 << 28

#: fsync policies: every append / at most every ``fsync_interval_s`` /
#: never (the OS page cache still survives a process kill).
FSYNC_POLICIES = ("always", "interval", "off")

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 << 20


@dataclass(frozen=True)
class WalRecord:
    """One durable log record."""

    lsn: int
    rec_type: int
    payload: bytes

    @property
    def size_bytes(self) -> int:
        return RECORD_OVERHEAD_BYTES + len(self.payload)


def encode_record(rec_type: int, lsn: int, payload: bytes) -> bytes:
    """Serialize one WAL record (sync + header + payload + CRC)."""
    if not 0 <= rec_type <= 0xFF:
        raise StoreError(f"record type {rec_type} out of range")
    if not 0 <= lsn < 1 << 64:
        raise StoreError(f"lsn {lsn} out of range")
    if len(payload) > MAX_RECORD_PAYLOAD:
        raise StoreError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_PAYLOAD}-byte limit"
        )
    body = (
        bytes((rec_type,))
        + lsn.to_bytes(8, "big")
        + len(payload).to_bytes(4, "big")
        + payload
    )
    return SYNC + body + crc16(body).to_bytes(2, "big")


def scan_records(
    data: bytes,
) -> Tuple[List[WalRecord], int, Optional[str]]:
    """Parse records off the front of *data*, stopping at corruption.

    Returns ``(records, valid_bytes, torn)``: everything before
    ``valid_bytes`` parsed and verified; ``torn`` describes why the
    scan stopped early (``None`` when the buffer ended exactly on a
    record boundary).  No resynchronization is attempted -- see the
    module docstring.
    """
    records: List[WalRecord] = []
    pos = 0
    size = len(data)
    while pos < size:
        if size - pos < RECORD_OVERHEAD_BYTES:
            return records, pos, (
                f"torn record header at byte {pos} "
                f"({size - pos} trailing byte(s))"
            )
        if data[pos : pos + 2] != SYNC:
            return records, pos, (
                f"bad sync marker at byte {pos}: "
                f"{bytes(data[pos:pos + 2])!r}"
            )
        base = pos + 2
        rec_type = data[base]
        lsn = int.from_bytes(data[base + 1 : base + 9], "big")
        length = int.from_bytes(data[base + 9 : base + 13], "big")
        if length > MAX_RECORD_PAYLOAD:
            return records, pos, (
                f"implausible payload length {length} at byte {pos}"
            )
        end = pos + RECORD_OVERHEAD_BYTES + length
        if size < end:
            return records, pos, (
                f"torn record payload at byte {pos} "
                f"(wanted {end - pos} byte(s), {size - pos} left)"
            )
        body = data[base : base + 13 + length]
        stored = int.from_bytes(data[end - 2 : end], "big")
        computed = crc16(body)
        if stored != computed:
            return records, pos, (
                f"record CRC mismatch at byte {pos} "
                f"(stored {stored:#06x}, computed {computed:#06x})"
            )
        records.append(
            WalRecord(lsn=lsn, rec_type=rec_type,
                      payload=bytes(body[13 : 13 + length]))
        )
        pos = end
    return records, pos, None


# ----------------------------------------------------------------------
# segment files
def segment_name(first_lsn: int) -> str:
    return f"wal-{first_lsn:016d}.seg"


def list_segments(directory: Union[str, Path]) -> List[Path]:
    """Segment files of *directory*, in LSN order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("wal-*.seg"))


def segment_first_lsn(path: Path) -> int:
    """The first LSN a segment file's name claims."""
    stem = path.name[len("wal-") : -len(".seg")]
    try:
        return int(stem)
    except ValueError:
        raise StoreError(f"malformed segment name {path.name!r}") from None


def read_segment(
    path: Union[str, Path],
) -> Tuple[List[WalRecord], int, Optional[str]]:
    """``scan_records`` over one segment file's bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StoreError(f"cannot read WAL segment {path}: {exc}") from None
    return scan_records(data)


@dataclass(frozen=True)
class WalScan:
    """Everything a full WAL directory scan learned.

    ``records`` is the trusted prefix across all segments, LSN-ordered;
    ``next_lsn`` is where a writer must continue; ``diagnostics``
    explains every discard.  The rest says where the prefix ends on
    disk, for :func:`repair_wal`: ``cut`` is the segment it ends in
    (``None`` when every segment is trusted whole) and ``keep_bytes``
    how many of its bytes are trusted, ``dropped`` the segments past
    the cut, ``empty`` the zero-byte segments before it, and
    ``truncated_bytes`` the bytes a repair drops.
    """

    records: Tuple[WalRecord, ...]
    next_lsn: int
    segments: int
    diagnostics: Tuple[str, ...] = ()
    cut: Optional[Path] = None
    keep_bytes: int = 0
    dropped: Tuple[Path, ...] = ()
    empty: Tuple[Path, ...] = ()
    truncated_bytes: int = 0


def scan_wal(directory: Union[str, Path]) -> WalScan:
    """Read every segment of *directory* into one trusted record prefix.

    The log ends at the first corruption: a torn tail in the *last*
    segment is the expected crash signature (just truncated), but a
    torn or LSN-discontinuous record in an earlier segment ends the
    log right there and ignores all later segments -- replaying past a
    hole would reorder history.  Each segment is read once.
    """
    segments = list_segments(directory)
    records: List[WalRecord] = []
    empty: List[Path] = []
    expected: Optional[int] = None
    for position, path in enumerate(segments):
        seg_records, _, problem = read_segment(path)
        if not seg_records and problem is None:
            # opened by a crashed process before its first write landed
            empty.append(path)
            continue
        keep_bytes = 0
        for record in seg_records:
            if expected is not None and record.lsn != expected:
                problem = (
                    f"LSN discontinuity (expected {expected}, found "
                    f"{record.lsn}); log ends here"
                )
                break
            records.append(record)
            expected = record.lsn + 1
            keep_bytes += record.size_bytes
        if problem is None:
            continue
        dropped = tuple(segments[position + 1 :])
        diagnostics = [f"{path.name}: {problem}"]
        if dropped:
            diagnostics.append(
                f"ignoring {len(dropped)} later segment(s) after the "
                f"torn point in {path.name}"
            )
        return WalScan(
            records=tuple(records),
            next_lsn=expected if expected is not None else 1,
            segments=len(segments),
            diagnostics=tuple(diagnostics),
            cut=path,
            keep_bytes=keep_bytes,
            dropped=dropped,
            empty=tuple(empty),
            truncated_bytes=os.path.getsize(path) - keep_bytes + sum(
                os.path.getsize(later) for later in dropped
            ),
        )
    return WalScan(
        records=tuple(records),
        next_lsn=expected if expected is not None else 1,
        segments=len(segments),
        empty=tuple(empty),
    )


def repair_wal(scan: WalScan) -> List[str]:
    """Make the directory *scan* read match its trusted prefix.

    Deletes the zero-byte segments a crashed process left (one would
    collide with the name a restarted writer picks), cuts the segment
    where the prefix ends to its trusted bytes (deleting it when it
    keeps none) and deletes every segment past it.  Reads no segment:
    it drops exactly ``scan.truncated_bytes`` bytes.  Returns the
    names of the deleted segments.
    """
    doomed = list(scan.empty)
    if scan.cut is not None:
        if scan.keep_bytes:
            with open(scan.cut, "r+b") as stream:
                stream.truncate(scan.keep_bytes)
        else:
            doomed.append(scan.cut)
    removed: List[str] = []
    for path in doomed + list(scan.dropped):
        try:
            path.unlink()
            removed.append(path.name)
        except OSError:  # pragma: no cover - raced deletion
            pass
    return removed


# ----------------------------------------------------------------------
class WalWriter:
    """Appends records to segment files with a configurable fsync
    policy.

    Single-writer by design: the debug server calls this only from the
    owning shard's ops, which run one at a time on its event loop, so
    appends need no locking.
    Group commit falls out of the ``interval`` policy -- every append
    is flushed to the OS immediately (surviving a process kill), and
    an append fsyncs the file, with every append before it, once
    ``fsync_interval_s`` has passed since the last fsync.  A power
    loss takes the appends since the last fsync: under steady appends
    at most ``fsync_interval_s`` of them, but no timer syncs an idle
    writer, so the last appends before a quiet spell stay unsynced
    until the next append, :meth:`rotate` or :meth:`close`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        next_lsn: int = 1,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync!r}; choose "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        if next_lsn < 1:
            raise StoreError(f"next_lsn must be >= 1, got {next_lsn}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_interval_s = fsync_interval_s
        self.segment_bytes = segment_bytes
        self._next_lsn = next_lsn
        self._file = None
        self._path: Optional[Path] = None
        self._segment_size = 0
        self._last_sync = 0.0
        self._closed = False
        #: Set on the first physical write failure; every later append
        #: is refused, because a record written after a torn tail would
        #: be unreachable to the scan (the log ends at the first
        #: corruption).  The owning shard degrades instead.
        self._failed: Optional[str] = None
        # lifetime counters (surfaced through the metrics plane)
        self.appends = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.rotations = 0

    # ------------------------------------------------------------------
    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """LSN of the newest durable record (0 when empty)."""
        return self._next_lsn - 1

    def append(self, rec_type: int, payload: bytes) -> int:
        """Durably append one record; returns its LSN.

        A physical failure (ENOSPC, I/O error, failed fsync, torn
        write) raises :class:`~repro.errors.StoreWriteError` carrying
        the segment path and the LSN, and permanently fails the
        writer: a record appended after a torn tail would be cut off
        by the no-resync scan, so the only safe continuation is a
        fresh writer over a repaired directory.
        """
        if self._closed:
            raise StoreError("WAL writer is closed")
        if self._failed is not None:
            raise StoreWriteError(
                f"WAL writer already failed ({self._failed}); "
                "repair and reopen the directory to continue",
                path=str(self._path) if self._path else None,
                lsn=self._next_lsn,
            )
        lsn = self._next_lsn
        record = encode_record(rec_type, lsn, payload)
        if self._file is None or (
            self._segment_size
            and self._segment_size + len(record) > self.segment_bytes
        ):
            self._open_segment(lsn)
        data = record
        torn = False
        gate = _io_gate
        try:
            if gate is not None:
                mangled = gate.on_append(self._path, lsn, record)
                if mangled is not None and len(mangled) < len(record):
                    data = mangled
                    torn = True
            self._file.write(data)
            self._file.flush()
        except OSError as exc:
            self._failed = f"append at lsn {lsn}: {exc}"
            raise StoreWriteError(
                f"WAL append of lsn {lsn} to {self._path} failed: {exc}",
                path=str(self._path),
                lsn=lsn,
            ) from exc
        self._segment_size += len(data)
        if torn:
            self._failed = f"torn append at lsn {lsn}"
            raise StoreWriteError(
                f"WAL append of lsn {lsn} to {self._path} was torn "
                f"({len(data)} of {len(record)} byte(s) written)",
                path=str(self._path),
                lsn=lsn,
            )
        self._next_lsn = lsn + 1
        self.appends += 1
        self.bytes_appended += len(record)
        self._maybe_fsync()
        return lsn

    def sync(self) -> None:
        """Force an fsync of the active segment."""
        if self._file is not None:
            self._fsync_file()
            self._last_sync = time.monotonic()

    def rotate(self) -> None:
        """Close the active segment; the next append starts a new one.

        Called after a snapshot so every pre-snapshot record lives in
        segments that compaction may delete whole.
        """
        if self._file is not None:
            if self._failed is None:
                self.sync()
            self._file.close()
            self._file = None
            self._path = None
            self._segment_size = 0

    def close(self) -> None:
        """Flush, fsync, and seal the writer (idempotent)."""
        if self._closed:
            return
        self.rotate()
        self._closed = True

    def stats(self) -> Dict[str, int]:
        return {
            "appends": self.appends,
            "bytes_appended": self.bytes_appended,
            "fsyncs": self.fsyncs,
            "rotations": self.rotations,
            "next_lsn": self._next_lsn,
        }

    # ------------------------------------------------------------------
    def _open_segment(self, first_lsn: int) -> None:
        if self._file is not None:
            self.rotate()
        path = self.directory / segment_name(first_lsn)
        if path.exists():
            raise StoreError(
                f"segment {path.name} already exists; refusing to "
                "overwrite history"
            )
        try:
            self._file = open(path, "wb")
        except OSError as exc:
            self._failed = f"open segment {path.name}: {exc}"
            raise StoreWriteError(
                f"cannot open WAL segment {path}: {exc}",
                path=str(path),
                lsn=first_lsn,
            ) from exc
        self._path = path
        self._segment_size = 0
        self.rotations += 1

    def _fsync_file(self) -> None:
        gate = _io_gate
        try:
            if gate is not None:
                gate.on_fsync(self._path)
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError as exc:
            self._failed = f"fsync of {self._path}: {exc}"
            raise StoreWriteError(
                f"WAL fsync of {self._path} failed: {exc}",
                path=str(self._path),
                lsn=self.last_lsn,
            ) from exc
        self.fsyncs += 1

    def _maybe_fsync(self) -> None:
        if self.fsync_policy == "off":
            return
        if self.fsync_policy == "always":
            self._fsync_file()
            return
        now = time.monotonic()
        if now - self._last_sync >= self.fsync_interval_s:
            self._fsync_file()
            self._last_sync = now


__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FSYNC_POLICIES",
    "MAX_RECORD_PAYLOAD",
    "RECORD_OVERHEAD_BYTES",
    "WAL_CLOSE",
    "WAL_FEED",
    "WAL_OPEN",
    "WAL_SNAPSHOT",
    "WalRecord",
    "WalScan",
    "WalWriter",
    "encode_record",
    "install_io_gate",
    "installed_io_gate",
    "list_segments",
    "read_segment",
    "repair_wal",
    "scan_records",
    "scan_wal",
    "segment_first_lsn",
    "segment_name",
]
