"""The four workloads, their seeded capture pools, and the oracle.

Each session is one seeded simulator capture rendered to trace-file
text and cut into FEED chunks by :func:`repro.server.loadgen.
render_session_chunks`.  Before anything is timed every capture gets
its batch reference from :meth:`PathLocalizer.localize`; a session's
CLOSE reply must equal it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Captures per pool; each workload's seeds occupy their own block.
SEED_BLOCK = 1024


@dataclass(frozen=True)
class Workload:
    """One traffic mix: which scenario is served and how it is fed."""

    name: str
    scenario: int
    instances: int
    mode: str
    chunk_records: int
    pool: int
    #: ``--data-dir`` with ``--fsync always`` plus the crash phase.
    durable: bool = False
    #: A SNAPSHOT after every FEED instead of one before CLOSE.
    poll: bool = False
    #: Closed-loop client threads, one connection each.
    clients: int = 2

    def serve_args(self) -> Tuple[str, ...]:
        """``repro serve`` arguments (the data directory is added by
        the caller)."""
        args = (
            "--scenario", str(self.scenario),
            "--instances", str(self.instances),
            "--mode", self.mode,
            "--shards", "2",
            "--port", "0",
            "--max-sessions", "256",
        )
        if self.durable:
            args += ("--fsync", "always")
        return args


# Why each exists (bench/README.md has the long form):
# - wide-frontier: the whole sc3x2 capture in one FEED, so the time goes
#   to advance_many on a 729-state frontier; cold set-up is the offline
#   pipeline.
# - per-record: sc1x1, one record per FEED, so the time goes to the
#   protocol, the event loop, ingest and the shard hand-off; the control
#   for kernel changes.
# - per-record-durable: per-record plus a WAL append and fsync on every
#   FEED, and crash recovery.
# - window-poll: window mode with a SNAPSHOT after every FEED; bypasses
#   the prefix kernels and runs the composed window DP instead.  One
#   client: with two, a cheap FEED waits behind the other client's
#   20-40 ms SNAPSHOT about 40% of the time, the median sits on the
#   edge between the two modes, and it moved by 35% between runs.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("wide-frontier", 3, 2, "prefix", 16, 512),
    Workload("per-record", 1, 1, "prefix", 1, 512),
    Workload("per-record-durable", 1, 1, "prefix", 1, 512, durable=True),
    Workload("window-poll", 2, 2, "window", 1, 128, poll=True, clients=1),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Capture:
    """One session's input and its batch reference."""

    seed: int
    chunks: Tuple[bytes, ...]
    #: ``(consistent_paths, total_paths)`` from the batch localizer.
    reference: Tuple[int, int]


def capture_seed(seed: int, workload: Workload, index: int) -> int:
    """Seed of capture *index* of *workload*'s pool: disjoint between
    workloads and between benchmark seeds."""
    slot = WORKLOADS.index(workload)
    return (seed * len(WORKLOADS) + slot) * SEED_BLOCK + index


def load_context(workload: Workload):
    """The served scenario's context (through the artifact cache)."""
    from repro.server.server import ServeContext

    return ServeContext.from_scenario(
        workload.scenario, instances=workload.instances, mode=workload.mode
    )


def build_pool(
    workload: Workload, context, seed: int, size: Optional[int] = None
) -> Tuple[Capture, ...]:
    """Render the capture pool and compute every batch reference."""
    from repro.selection.localization import PathLocalizer
    from repro.server.loadgen import render_session_chunks
    from repro.stream.service import synthetic_session_records

    localizer = PathLocalizer(context.interleaved, context.traced)
    pool = []
    for index in range(workload.pool if size is None else size):
        capture = capture_seed(seed, workload, index)
        records = synthetic_session_records(
            context.interleaved, context.traced, capture,
            scenario_name="loadgen",
        )
        result = localizer.localize(
            [record.message for record in records], workload.mode
        )
        chunks = render_session_chunks(context, capture, workload.chunk_records)
        if workload.chunk_records == 1 and len(chunks) > 1:
            # the one-line trace-file header rides with the first record,
            # so every FEED carries exactly one record
            chunks = (chunks[0] + chunks[1],) + chunks[2:]
        pool.append(
            Capture(
                seed=capture,
                chunks=chunks,
                reference=(result.consistent_paths, result.total_paths),
            )
        )
    return tuple(pool)


def check_close(
    capture: Capture, status: str, consistent: int, total: int
) -> Optional[str]:
    """The oracle: ``None`` when a CLOSE reply matches the batch
    reference, else a one-line description of the mismatch."""
    if status != "closed":
        return f"capture {capture.seed}: status {status!r}, expected 'closed'"
    if (consistent, total) != capture.reference:
        return (
            f"capture {capture.seed}: served {consistent}/{total}, "
            f"batch {capture.reference[0]}/{capture.reference[1]}"
        )
    return None
