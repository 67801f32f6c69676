"""Invariant checkers for the chaos soak.

Four end-to-end promises the debug service makes, checked against a
live (fault-injected) deployment:

1. **Acked means durable** -- any chunk a client saw acknowledged
   before a crash is present (or exceeded) in the recovered server's
   per-session cursor, except on shards that explicitly degraded to
   memory-only mode *with a structured alert* before the crash.
2. **Recovery converges to batch** -- every session's final
   localization (after any number of faults, retries, replays, and one
   mid-soak crash) equals an offline, uninterrupted batch localize of
   the same trace content.
3. **No shard dies** -- after the soak, every shard still serves a
   fresh open/feed/close probe; a shard that swallowed a poison
   payload or a disk fault and silently stopped answering would fail
   this.
4. **The metrics plane stays serveable** -- STATS answered throughout
   the soak (it is answered inline and runs no shard op, so no
   shard's trouble can starve it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.server.client import DebugClient, RetryPolicy
from repro.stream.ingest import IncrementalTraceParser
from repro.stream.session import SessionManager


@dataclass(frozen=True)
class Violation:
    """One broken invariant (the soak fails on any)."""

    invariant: str
    subject: str
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "detail": self.detail,
        }


def batch_reference(
    context: "object", chunks: Sequence[bytes], mode: str = "prefix"
) -> Dict[str, int]:
    """The uninterrupted ground truth for one session's content: parse
    the full trace text in one sitting and localize it offline, exactly
    as the server would have with no faults."""
    manager = SessionManager(
        context.interleaved,  # type: ignore[attr-defined]
        context.traced,  # type: ignore[attr-defined]
        mode=mode,
    )
    parser = IncrementalTraceParser(context.catalog)  # type: ignore[attr-defined]
    text = b"".join(chunks).decode("utf-8")
    records = list(parser.feed(text))
    records.extend(parser.close())
    sid = manager.open("reference")
    manager.feed(sid, records, drop_invisible=True)
    summary = manager.close(sid)
    return {
        key: int(summary[key])
        for key in ("records", "consistent_paths", "total_paths")
    }


def check_localization(
    rows: Sequence[Mapping[str, object]],
    references: Mapping[str, Mapping[str, int]],
) -> List[Violation]:
    """Compare every session's final numbers to its batch reference."""
    violations: List[Violation] = []
    for row in rows:
        sid = str(row["session_id"])
        reference = references.get(sid)
        if reference is None:
            continue
        status = str(row.get("status", ""))
        if status.startswith("error"):
            violations.append(
                Violation(
                    "localization-convergence",
                    sid,
                    f"session did not complete: {row.get('detail', status)}",
                )
            )
            continue
        for key in ("records", "consistent_paths", "total_paths"):
            got = row.get(key)
            if got != reference[key]:
                violations.append(
                    Violation(
                        "localization-convergence",
                        sid,
                        f"{key}: got {got}, batch reference "
                        f"{reference[key]}",
                    )
                )
    return violations


def check_acked_durability(
    server: "object",
    acked: Mapping[str, int],
    exempt_shards: Sequence[int] = (),
) -> List[Violation]:
    """After a crash + recovery, every acked chunk must be reflected in
    the recovered server's cursors.

    *server* is the restarted in-process :class:`DebugServer`; *acked*
    maps session id -> the next-chunk watermark the client had seen
    acknowledged at crash time.  The comparison is ``>=`` (drivers may
    already be feeding again), which is conservative-safe: it can only
    under-report progress, never excuse a lost chunk.  Shards that
    degraded (with an alert) before the crash stopped promising
    durability and are exempt.  It reads the shards' session tables,
    so it runs on the server's event loop: the soak hands it to
    :meth:`~repro.server.server.ServerThread.call`.
    """
    violations: List[Violation] = []
    exempt = set(exempt_shards)
    for sid, watermark in sorted(acked.items()):
        shard = server.shard_for(sid)
        if shard.index in exempt:
            continue
        if sid in shard.manager.session_ids():
            recovered = shard.manager.session(sid).next_chunk
        elif shard.store is not None and sid in shard.store.spilled_ids():
            # spilled sessions are durable by definition; their cursor
            # is folded into the spill state and honored on revival
            continue
        else:
            violations.append(
                Violation(
                    "acked-durability",
                    sid,
                    f"session with {watermark} acked chunk(s) missing "
                    "entirely after recovery",
                )
            )
            continue
        if recovered < watermark:
            violations.append(
                Violation(
                    "acked-durability",
                    sid,
                    f"client saw chunk {watermark - 1} acked but the "
                    f"recovered cursor is {recovered}",
                )
            )
    return violations


def check_shard_liveness(
    server: "object", host: str, port: int, timeout_s: float = 5.0
) -> List[Violation]:
    """Probe every shard with a fresh session over a clean connection
    (no proxy, no faults); a dead shard cannot answer."""
    violations: List[Violation] = []
    shards = server.config.shards
    probe_ids: Dict[int, str] = {}
    candidate = 0
    while len(probe_ids) < shards and candidate < 10_000:
        sid = f"probe-{candidate:04d}"
        index = server.ring.shard_for(sid)
        probe_ids.setdefault(index, sid)
        candidate += 1
    client = DebugClient(
        host, port,
        policy=RetryPolicy(max_attempts=3, timeout_s=timeout_s),
    )
    try:
        for index in range(shards):
            sid = probe_ids.get(index)
            if sid is None:  # pragma: no cover - ring never this skewed
                continue
            try:
                client.open_session(session_id=sid)
                client.feed(sid, 0, b"", eof=True)
                client.close_session(sid)
            except Exception as exc:  # noqa: BLE001 - any failure = dead
                violations.append(
                    Violation(
                        "shard-liveness",
                        f"shard-{index}",
                        f"probe session {sid!r} failed: "
                        f"{type(exc).__name__}: {exc}",
                    )
                )
    finally:
        client.close()
    return violations


def check_metrics_serveable(
    polls_ok: int,
    polls_failed: int,
    last_snapshot: Optional[Mapping[str, object]],
) -> List[Violation]:
    """STATS must have answered during the soak and the final snapshot
    must carry the health section."""
    violations: List[Violation] = []
    if polls_ok == 0:
        violations.append(
            Violation(
                "metrics-serveable",
                "stats",
                f"no STATS poll succeeded ({polls_failed} failed)",
            )
        )
        return violations
    if not isinstance(last_snapshot, Mapping) or (
        "health" not in last_snapshot
    ):
        violations.append(
            Violation(
                "metrics-serveable",
                "stats",
                "final STATS snapshot carries no health section",
            )
        )
    return violations


__all__ = [
    "Violation",
    "batch_reference",
    "check_acked_durability",
    "check_localization",
    "check_metrics_serveable",
    "check_shard_liveness",
]
