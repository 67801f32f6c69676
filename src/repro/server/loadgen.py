"""Multi-process load generator for the debug service.

Replays simulator-produced trace files against a running
:class:`~repro.server.server.DebugServer` and reports throughput and
feed-latency percentiles.

The workload is faithful to the paper's setting: each session is one
seeded failing run of the simulator, projected onto the traced message
set, rendered to the Figure-4 trace-file text, and streamed over the
wire in chunks cut at record-line boundaries.  Chunks are pre-rendered
in the parent so worker processes need nothing but bytes; workers use
the ``spawn`` start method (the parent often hosts an in-process
:class:`~repro.server.server.ServerThread` whose event loop must not
be forked).

``processes=0`` runs every session inline on threads in the calling
process -- the deterministic path the tests use.
"""

from __future__ import annotations

import io
import multiprocessing
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.server.client import DebugClient, RetryPolicy, SessionFeed
from repro.sim.tracefile import write_trace_file
from repro.stream.workload import percentile

#: One pre-rendered session workload: ``(session_id, chunk bytes...)``.
SessionJob = Tuple[str, Tuple[bytes, ...]]


# ----------------------------------------------------------------------
# workload construction (parent process)
def render_session_chunks(
    context: "object",
    seed: int,
    chunk_records: int = 16,
    scenario_name: str = "loadgen",
) -> Tuple[bytes, ...]:
    """One session's wire chunks: a seeded simulated run projected onto
    the traced set, rendered to trace-file text, split at record-line
    boundaries (header rides in the first chunk; every chunk ends on a
    newline, so text parsing never waits on EOF)."""
    from repro.stream.service import synthetic_session_records

    records = synthetic_session_records(
        context.interleaved,  # type: ignore[attr-defined]
        context.traced,  # type: ignore[attr-defined]
        seed,
        scenario_name=scenario_name,
    )
    buffer = io.StringIO()
    write_trace_file(
        buffer, records, scenario=scenario_name, seed=seed
    )
    lines = buffer.getvalue().splitlines(keepends=True)
    if chunk_records < 1:
        raise ReproError(
            f"chunk_records must be >= 1, got {chunk_records}"
        )
    chunks = [
        "".join(lines[i : i + chunk_records]).encode("utf-8")
        for i in range(0, len(lines), chunk_records)
    ]
    return tuple(chunks) if chunks else (b"",)


def build_session_jobs(
    context: "object",
    sessions: int,
    seed: int = 0,
    chunk_records: int = 16,
    scenario_name: str = "loadgen",
) -> Tuple[SessionJob, ...]:
    """Pre-render every session's chunks (seeds ``seed..seed+n-1``)."""
    if sessions < 1:
        raise ReproError(f"sessions must be >= 1, got {sessions}")
    return tuple(
        (
            f"lg-{seed + i:04d}",
            render_session_chunks(
                context, seed + i, chunk_records, scenario_name
            ),
        )
        for i in range(sessions)
    )


# ----------------------------------------------------------------------
# worker (runs in a spawned process, or inline when processes=0)
def _drive_jobs(
    host: str,
    port: int,
    jobs: Sequence[SessionJob],
    mode: str,
    threads: int,
    policy: RetryPolicy,
) -> List[Dict[str, object]]:
    """Drive *jobs* on a thread pool, one client per session (clients
    are not thread-safe): open, feed every chunk in order, snapshot,
    close.  Per-feed wall time is measured around each feed call.
    Returns plain dicts so the result crosses process boundaries
    without pickling repro objects."""

    def one(job: SessionJob) -> Dict[str, object]:
        session_id, chunks = job
        client = DebugClient(host, port, policy=policy)
        feed: Optional[SessionFeed] = None
        try:
            feed = SessionFeed(client, session_id=session_id, mode=mode)
            latencies: List[float] = []
            records = 0
            try:
                for chunk in chunks:
                    started = perf_counter()
                    records += feed.feed(chunk).consumed
                    latencies.append(perf_counter() - started)
                result = feed.snapshot().result
            finally:
                status = feed.close().status
            return {
                "session_id": feed.session_id,
                "consistent_paths": result.consistent_paths,
                "total_paths": result.total_paths,
                "fraction": result.fraction,
                "status": status,
                "records": records,
                "latencies": latencies,
                "retries": client.retries,
                "recoveries": feed.recoveries,
            }
        except ReproError as exc:
            return {
                "session_id": session_id,
                "failure": f"{type(exc).__name__}: {exc}",
                "retries": client.retries,
                "recoveries": feed.recoveries if feed is not None else 0,
            }
        finally:
            client.close()

    if threads <= 1 or len(jobs) <= 1:
        return [one(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, jobs))


def _warm_worker(_index: int) -> int:
    """Force the spawned worker's imports before the timed window --
    interpreter start-up is not part of the server's throughput."""
    import repro.server.client  # noqa: F401

    return _index


@dataclass(frozen=True)
class NetworkLoadReport:
    """Aggregate numbers from one networked multi-session run.

    ``outcomes`` holds one row per session that reached its CLOSE
    (``session_id``, ``status``, ``records``, ``consistent_paths``,
    ``total_paths``, ``fraction``, ``latencies``, ``retries``,
    ``recoveries``); a session that failed is named in ``failures``
    instead.
    """

    sessions: int
    workers: int
    chunk_size: int
    mode: str
    total_records: int
    wall_s: float
    records_per_s: float
    p50_feed_latency_s: float
    p95_feed_latency_s: float
    p99_feed_latency_s: float
    max_feed_latency_s: float
    retries: int
    recoveries: int
    failures: Tuple[str, ...]
    outcomes: Tuple[Dict[str, object], ...]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (per-session rows reduced to their status
        counts and localization fractions)."""
        statuses = Counter(str(o["status"]) for o in self.outcomes)
        return {
            "sessions": self.sessions,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "mode": self.mode,
            "total_records": self.total_records,
            "wall_s": round(self.wall_s, 6),
            "records_per_s": round(self.records_per_s, 3),
            "p50_feed_latency_s": round(self.p50_feed_latency_s, 6),
            "p95_feed_latency_s": round(self.p95_feed_latency_s, 6),
            "p99_feed_latency_s": round(self.p99_feed_latency_s, 6),
            "max_feed_latency_s": round(self.max_feed_latency_s, 6),
            "retries": self.retries,
            "recoveries": self.recoveries,
            "failures": list(self.failures),
            "statuses": dict(sorted(statuses.items())),
            "fractions": [
                round(o["fraction"], 8) for o in self.outcomes  # type: ignore[arg-type]
            ],
        }


def run_network_load_test(
    host: str,
    port: int,
    context: "object",
    sessions: int = 8,
    processes: int = 2,
    threads: int = 2,
    chunk_records: int = 16,
    seed: int = 0,
    mode: str = "prefix",
    policy: Optional[RetryPolicy] = None,
    scenario_name: str = "loadgen",
) -> NetworkLoadReport:
    """Replay *sessions* simulated trace files against ``host:port``.

    Sessions are dealt round-robin over *processes* worker processes
    (``processes=0`` → inline in this process), each driving up to
    *threads* sessions concurrently.  The wall clock covers the full
    networked span, so ``records_per_s`` is end-to-end throughput.
    """
    jobs = build_session_jobs(
        context, sessions, seed, chunk_records, scenario_name
    )
    if policy is None:
        policy = RetryPolicy()
    if processes <= 0:
        started = perf_counter()
        rows = _drive_jobs(host, port, jobs, mode, threads, policy)
        wall_s = perf_counter() - started
    else:
        shares: List[List[SessionJob]] = [[] for _ in range(processes)]
        for i, job in enumerate(jobs):
            shares[i % processes].append(job)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=processes) as pool:
            pool.map(_warm_worker, range(processes))
            started = perf_counter()
            parts = pool.starmap(
                _drive_jobs,
                [
                    (host, port, share, mode, threads, policy)
                    for share in shares
                    if share
                ],
            )
            wall_s = perf_counter() - started
        rows = [row for part in parts for row in part]

    outcomes = tuple(row for row in rows if "failure" not in row)
    latencies = sorted(
        latency
        for o in outcomes
        for latency in o["latencies"]  # type: ignore[attr-defined]
    )
    total_records = sum(int(o["records"]) for o in outcomes)  # type: ignore[arg-type]
    return NetworkLoadReport(
        sessions=len(outcomes),
        workers=(processes if processes > 0 else 1) * max(threads, 1),
        chunk_size=chunk_records,
        mode=mode,
        total_records=total_records,
        wall_s=wall_s,
        records_per_s=total_records / wall_s if wall_s > 0 else 0.0,
        p50_feed_latency_s=percentile(latencies, 0.50),
        p95_feed_latency_s=percentile(latencies, 0.95),
        p99_feed_latency_s=percentile(latencies, 0.99),
        max_feed_latency_s=latencies[-1] if latencies else 0.0,
        retries=sum(int(row["retries"]) for row in rows),  # type: ignore[arg-type]
        recoveries=sum(int(row["recoveries"]) for row in rows),  # type: ignore[arg-type]
        failures=tuple(
            f"{row['session_id']}: {row['failure']}"
            for row in rows
            if "failure" in row
        ),
        outcomes=outcomes,
    )
