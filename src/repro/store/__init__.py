"""Durable session state for the debug service.

The paper's debug loop assumes validation campaigns whose observed
traces outlive the machine that captured them; this package gives the
networked service (:mod:`repro.server`) that property.  Per server
shard it keeps:

* :mod:`repro.store.wal` -- an append-only, CRC-framed write-ahead
  log of OPEN/FEED/CLOSE operations (logged before they are applied,
  fsynced under a configurable group-commit policy),
* :mod:`repro.store.snapshot` -- periodic versioned checkpoints of
  every session's localization frontier, fingerprinted against the
  scenario they were taken on,
* :mod:`repro.store.store` -- the :class:`SessionStore` facade the
  server drives (plus the eviction spill map and log compaction), and
  :func:`recover_directory`, the one read of a shard directory that a
  start and ``repro store verify`` share: the newest valid snapshot
  and the WAL tail past it, from a single scan that also says where a
  start's repair cuts the log,
* :mod:`repro.store.inspect` -- offline ``repro store
  {inspect,verify,compact}`` tooling over a data directory.

Because the incremental localization pipeline is chunk-invariant,
"snapshot + replayed WAL tail" reconstructs sessions bit-identical to
an uninterrupted run -- the property the crash-recovery suite pins.
"""

from repro.store.inspect import (
    compact_store,
    inspect_store,
    read_meta,
    shard_directories,
    shard_directory,
    verify_store,
    write_meta,
)
from repro.store.snapshot import (
    SNAPSHOT_FORMAT,
    latest_snapshot,
    list_snapshots,
    prune_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.store.store import RecoveredShard, SessionStore, recover_directory
from repro.store.wal import (
    FSYNC_POLICIES,
    WAL_CLOSE,
    WAL_FEED,
    WAL_OPEN,
    WAL_SNAPSHOT,
    WalRecord,
    WalScan,
    WalWriter,
    scan_records,
    scan_wal,
)

__all__ = [
    "FSYNC_POLICIES",
    "RecoveredShard",
    "SNAPSHOT_FORMAT",
    "SessionStore",
    "WAL_CLOSE",
    "WAL_FEED",
    "WAL_OPEN",
    "WAL_SNAPSHOT",
    "WalRecord",
    "WalScan",
    "WalWriter",
    "compact_store",
    "inspect_store",
    "latest_snapshot",
    "list_snapshots",
    "prune_snapshots",
    "read_meta",
    "read_snapshot",
    "recover_directory",
    "scan_records",
    "scan_wal",
    "shard_directories",
    "shard_directory",
    "verify_store",
    "write_meta",
    "write_snapshot",
]
