"""Campaign orchestration: parallel fan-out with a failure policy.

The orchestrator is the piece consumers actually talk to.  It wraps
:func:`repro.runtime.parallel.run_tasks`:

    results = orchestrate(_worker, items, jobs=4)

Failures policy: by default a task exception aborts the run (matching
what a serial loop would do); with ``collect_errors=True`` each task
instead resolves to a :class:`TaskFailure` so campaigns can tolerate
bad units while recording them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional

from repro.runtime.parallel import run_tasks


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
    collect_errors: bool = False,
) -> List[Any]:
    """Run *fn* over *items* and return the results.

    Results are in item order (parallel and serial runs produce the
    same list).
    """
    wrapped = _failure_collector(fn) if collect_errors else fn
    results = run_tasks(wrapped, items, jobs=jobs, timeout=timeout)
    if collect_errors:
        results = [
            _restamp(r, i) if isinstance(r, TaskFailure) else r
            for i, r in enumerate(results)
        ]
    return results


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
