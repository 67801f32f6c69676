"""Campaign orchestration: parallel fan-out + telemetry in one call.

The orchestrator is the piece consumers actually talk to.  It wraps
:func:`repro.runtime.parallel.run_tasks` with a telemetry envelope:
wall time, task counts, and the artifact-cache hit/miss delta observed
during the run, returned as a :class:`~repro.runtime.telemetry.RunRecord`.

    results, record = orchestrate(_worker, items, jobs=4, name="sweep")

Failures policy: by default a task exception aborts the run (matching
what a serial loop would do); with ``collect_errors=True`` each task
instead resolves to a :class:`TaskFailure` so campaigns can tolerate
bad units while recording them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.runtime.cache import ArtifactCache, default_cache
from repro.runtime.parallel import resolve_jobs, run_tasks
from repro.runtime.telemetry import RunRecord


@dataclass(frozen=True)
class TaskFailure:
    """Placeholder result for a task that raised (collect mode)."""

    index: int
    error_type: str
    message: str


def orchestrate(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int = 1,
    timeout: Optional[float] = None,
    name: str = "run",
    cache: Optional[ArtifactCache] = None,
    collect_errors: bool = False,
) -> Tuple[List[Any], RunRecord]:
    """Run *fn* over *items* and return ``(results, record)``.

    Results are in item order (parallel and serial runs produce the
    same list).
    """
    work = list(items)
    cache = cache if cache is not None else default_cache()
    hits0 = cache.stats.hits
    misses0 = cache.stats.misses
    record = RunRecord(
        name=name,
        jobs=resolve_jobs(jobs),
        tasks_dispatched=len(work),
    )
    wrapped = _failure_collector(fn) if collect_errors else fn
    start = time.perf_counter()
    results = run_tasks(wrapped, work, jobs=jobs, timeout=timeout)
    record.wall_time_s = time.perf_counter() - start
    failures = sum(1 for r in results if isinstance(r, TaskFailure))
    if collect_errors:
        results = [
            _restamp(r, i) if isinstance(r, TaskFailure) else r
            for i, r in enumerate(results)
        ]
    record.tasks_failed = failures
    record.tasks_completed = len(work) - failures
    # cache deltas only see this process's side of a parallel run
    # (workers keep their own counters); still the right warm/cold signal
    record.cache_hits = cache.stats.hits - hits0
    record.cache_misses = cache.stats.misses - misses0
    return results, record


class _failure_collector:
    """Picklable wrapper turning task exceptions into TaskFailure."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        try:
            return self.fn(item)
        except Exception as exc:
            return TaskFailure(
                index=-1, error_type=type(exc).__name__, message=str(exc)
            )


def _restamp(failure: TaskFailure, index: int) -> TaskFailure:
    return TaskFailure(
        index=index,
        error_type=failure.error_type,
        message=failure.message,
    )
