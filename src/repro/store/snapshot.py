"""Versioned frontier snapshots of a shard's session state.

A snapshot file is one :mod:`~repro.store.wal` record of type
``WAL_SNAPSHOT`` whose LSN is the WAL position it covers and whose
payload is key-sorted JSON -- the same CRC framing that guards the
log guards the checkpoint, so a torn snapshot write is detected the
same way a torn log write is.  Files are written atomically (temp +
``os.replace``), named ``snap-<lsn>.snap``, and the newest *valid*
one wins: a crash mid-snapshot simply falls back to the previous one
plus a longer WAL replay.

Payload shape (format 1)::

    {
      "format": 1,
      "fingerprint": <TableRegistry content hash of (scenario, visible set)>,
      "scenario": ..., "mode": ...,
      "session_counter": <written, no longer read; 0 by default>,
      "wal_lsn": <last LSN folded into this snapshot>,
      "sessions": [<per-session state dict>, ...],
      "spilled": [<per-session state dict>, ...]
    }

``session_counter`` is read by nothing: an id-less OPEN's session is
named after its open token, so no id counter survives a restart.
:meth:`repro.store.store.SessionStore.write_snapshot` still takes and
writes it (0 unless a caller passes one), so the payload keeps its
shape.

The ``fingerprint`` ties the snapshot to the exact scenario and traced
set it was taken against (:meth:`repro.selection.localization.
PathLocalizer.fingerprint`); recovery refuses state whose fingerprint
does not match the serving context, because frontier state IDs are
only meaningful relative to that product.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import StoreError, StoreWriteError
from repro.store import wal

#: Snapshot payload format version.
SNAPSHOT_FORMAT = 1


def snapshot_name(lsn: int) -> str:
    return f"snap-{lsn:016d}.snap"


def list_snapshots(directory: Union[str, Path]) -> List[Path]:
    """Snapshot files of *directory*, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("snap-*.snap"))


def write_snapshot(
    directory: Union[str, Path], payload: dict, wal_lsn: int
) -> Path:
    """Atomically persist *payload* as the snapshot covering *wal_lsn*."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    body = json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    record = wal.encode_record(wal.WAL_SNAPSHOT, wal_lsn, body)
    path = directory / snapshot_name(wal_lsn)
    tmp = path.with_suffix(".tmp")
    gate = wal.installed_io_gate()
    try:
        if gate is not None:
            gate.on_snapshot(path)
        with open(tmp, "wb") as stream:
            stream.write(record)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        # the atomic temp + replace discipline means a failed write
        # never clobbers the previous snapshot; surface a typed error
        # so the shard can fall back to WAL-only durability
        try:
            tmp.unlink()
        except OSError:
            pass
        raise StoreWriteError(
            f"snapshot write to {path} failed: {exc}", path=str(path)
        ) from exc
    _fsync_directory(directory)
    return path


def read_snapshot(path: Union[str, Path]) -> Tuple[int, dict]:
    """Load one snapshot file; ``(wal_lsn, payload)``.

    Raises :class:`~repro.errors.StoreError` on any corruption --
    callers fall back to an older snapshot.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise StoreError(f"cannot read snapshot {path}: {exc}") from None
    records, valid, torn = wal.scan_records(data)
    if torn is not None or len(records) != 1 or valid != len(data):
        raise StoreError(
            f"corrupt snapshot {Path(path).name}: "
            f"{torn or 'unexpected record layout'}"
        )
    record = records[0]
    if record.rec_type != wal.WAL_SNAPSHOT:
        raise StoreError(
            f"snapshot {Path(path).name} holds record type "
            f"{record.rec_type}, not WAL_SNAPSHOT"
        )
    try:
        payload = json.loads(record.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(
            f"undecodable snapshot payload in {Path(path).name}: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise StoreError(
            f"snapshot payload in {Path(path).name} is not an object"
        )
    fmt = payload.get("format")
    if fmt != SNAPSHOT_FORMAT:
        raise StoreError(
            f"snapshot {Path(path).name} has format {fmt!r}; this "
            f"reader speaks {SNAPSHOT_FORMAT}"
        )
    return record.lsn, payload


def latest_snapshot(
    directory: Union[str, Path],
) -> Tuple[Optional[int], Optional[dict], Tuple[str, ...]]:
    """The newest valid snapshot: ``(lsn, payload, diagnostics)``.

    Tries newest first; every invalid candidate is skipped with a
    diagnostic.  ``(None, None, diags)`` when nothing valid exists.
    """
    diagnostics: List[str] = []
    for path in reversed(list_snapshots(directory)):
        try:
            lsn, payload = read_snapshot(path)
        except StoreError as exc:
            diagnostics.append(str(exc))
            continue
        return lsn, payload, tuple(diagnostics)
    return None, None, tuple(diagnostics)


def prune_snapshots(
    directory: Union[str, Path], keep: int = 2
) -> List[Path]:
    """Delete all but the newest *keep* snapshots; returns the removed
    paths.  Keeping one spare means a torn newest snapshot still
    recovers from the previous one."""
    removed: List[Path] = []
    snapshots = list_snapshots(directory)
    for path in snapshots[: max(0, len(snapshots) - keep)]:
        try:
            path.unlink()
            removed.append(path)
        except OSError:  # pragma: no cover - raced deletion
            pass
    return removed


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of the directory entry (rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


__all__ = [
    "SNAPSHOT_FORMAT",
    "latest_snapshot",
    "list_snapshots",
    "prune_snapshots",
    "read_snapshot",
    "snapshot_name",
    "write_snapshot",
]
