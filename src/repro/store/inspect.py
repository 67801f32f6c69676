"""Offline tooling over a server data directory.

Layout of a data directory (one per :class:`~repro.server.server.
DebugServer`)::

    <data-dir>/
      meta.json            server-level identity (scenario, fingerprint,
                           shard count -- recovery refuses a mismatch)
      shard-00/            one SessionStore directory per shard
        wal-*.seg
        snap-*.snap
      shard-01/
      ...

These helpers back ``repro store {inspect,verify,compact}``: they read
(or, for compaction, prune) the directory without booting a server, so
an operator can audit durability state of a stopped service.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import StoreError
from repro.store import snapshot as snapshot_mod
from repro.store import wal
from repro.store.store import compact_directory, recover_directory

#: Name of the server-identity file at the data-dir root.
META_NAME = "meta.json"

#: Data-directory format version.
META_FORMAT = 1


def shard_directory(data_dir: Union[str, Path], index: int) -> Path:
    return Path(data_dir) / f"shard-{index:02d}"


def shard_directories(data_dir: Union[str, Path]) -> List[Path]:
    """Shard directories under *data_dir*, in index order."""
    root = Path(data_dir)
    if not root.is_dir():
        return []
    return sorted(p for p in root.glob("shard-*") if p.is_dir())


def read_meta(data_dir: Union[str, Path]) -> Optional[dict]:
    """The data directory's identity, or ``None`` when uninitialized."""
    path = Path(data_dir) / META_NAME
    if not path.exists():
        return None
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"unreadable {path}: {exc}") from None
    if not isinstance(meta, dict):
        raise StoreError(f"{path} does not hold a JSON object")
    return meta


def write_meta(data_dir: Union[str, Path], meta: dict) -> Path:
    """Atomically persist the data directory's identity."""
    root = Path(data_dir)
    root.mkdir(parents=True, exist_ok=True)
    path = root / META_NAME
    tmp = path.with_suffix(".tmp")
    tmp.write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def inspect_store(data_dir: Union[str, Path]) -> dict:
    """A structural report of *data_dir*: meta, segments, snapshots."""
    root = Path(data_dir)
    if not root.is_dir():
        raise StoreError(f"no such data directory: {root}")
    report: Dict[str, object] = {
        "data_dir": str(root),
        "meta": read_meta(root),
        "shards": [],
    }
    for shard_dir in shard_directories(root):
        segments = []
        for path in wal.list_segments(shard_dir):
            records, valid, torn = wal.read_segment(path)
            segments.append(
                {
                    "name": path.name,
                    "size_bytes": path.stat().st_size,
                    "records": len(records),
                    "first_lsn": records[0].lsn if records else None,
                    "last_lsn": records[-1].lsn if records else None,
                    "torn": torn,
                }
            )
        snapshots = []
        for path in snapshot_mod.list_snapshots(shard_dir):
            entry: Dict[str, object] = {
                "name": path.name,
                "size_bytes": path.stat().st_size,
            }
            try:
                lsn, payload = snapshot_mod.read_snapshot(path)
                entry.update(
                    wal_lsn=lsn,
                    sessions=len(payload.get("sessions", ())),
                    spilled=len(payload.get("spilled", ())),
                    fingerprint=payload.get("fingerprint"),
                    valid=True,
                )
            except StoreError as exc:
                entry.update(valid=False, error=str(exc))
            snapshots.append(entry)
        report["shards"].append(
            {
                "shard": shard_dir.name,
                "segments": segments,
                "snapshots": snapshots,
            }
        )
    return report


def verify_store(data_dir: Union[str, Path]) -> dict:
    """Read every shard as a start would, through
    :func:`~repro.store.store.recover_directory`, and report what that
    start would do (``truncated_bytes`` is what its repair drops).

    ``ok`` is true when every shard recovers with no diagnostics (a
    torn tail, a corrupt snapshot, or a fingerprint drifting from
    ``meta.json`` all count as problems).
    """
    root = Path(data_dir)
    if not root.is_dir():
        raise StoreError(f"no such data directory: {root}")
    meta = read_meta(root)
    problems: List[str] = []
    shards = []
    for shard_dir in shard_directories(root):
        recovered = recover_directory(shard_dir)
        sessions = 0
        if recovered.snapshot is not None:
            sessions = len(recovered.snapshot.get("sessions", ())) + len(
                recovered.snapshot.get("spilled", ())
            )
            if (
                meta is not None
                and meta.get("fingerprint")
                and recovered.snapshot.get("fingerprint")
                != meta.get("fingerprint")
            ):
                problems.append(
                    f"{shard_dir.name}: snapshot fingerprint does not "
                    "match meta.json"
                )
        for diagnostic in recovered.diagnostics:
            problems.append(f"{shard_dir.name}: {diagnostic}")
        shards.append(
            {
                "shard": shard_dir.name,
                "snapshot_lsn": recovered.snapshot_lsn,
                "snapshot_sessions": sessions,
                "replay_records": len(recovered.tail),
                "next_lsn": recovered.next_lsn,
                "truncated_bytes": recovered.scan.truncated_bytes,
                "diagnostics": list(recovered.diagnostics),
            }
        )
    if meta is not None and len(shards) not in (
        0,
        int(meta.get("shards", len(shards))),
    ):
        problems.append(
            f"meta.json declares {meta.get('shards')} shard(s), "
            f"found {len(shards)}"
        )
    return {
        "data_dir": str(root),
        "ok": not problems,
        "problems": problems,
        "shards": shards,
    }


def compact_store(data_dir: Union[str, Path]) -> dict:
    """Offline compaction: drop WAL segments covered by each shard's
    newest snapshot, through the live store's
    :func:`~repro.store.store.compact_directory`; the one place that
    reads the covered LSN back from disk."""
    root = Path(data_dir)
    if not root.is_dir():
        raise StoreError(f"no such data directory: {root}")
    shards = []
    total = 0
    for shard_dir in shard_directories(root):
        lsn, _, _ = snapshot_mod.latest_snapshot(shard_dir)
        removed = [] if lsn is None else compact_directory(shard_dir, lsn)
        total += len(removed)
        shards.append(
            {
                "shard": shard_dir.name,
                "snapshot_lsn": lsn,
                "removed_segments": removed,
            }
        )
    return {
        "data_dir": str(root),
        "segments_removed": total,
        "shards": shards,
    }


__all__ = [
    "META_FORMAT",
    "META_NAME",
    "compact_store",
    "inspect_store",
    "read_meta",
    "shard_directories",
    "shard_directory",
    "verify_store",
    "write_meta",
]
