"""Trace-buffer width planning.

Message selection answers "what fits a given buffer?"; silicon
architects face the inverse question during floorplanning: *how wide
must the trace buffer be* to hit a coverage target for the usage
scenarios that matter?  The planner sweeps candidate widths, reports
the coverage/gain knee, and finds the minimal width meeting a target
-- the numbers a debug-architecture review actually asks for.

Monotonicity caveat: Step-2 gain (without packing) is monotone in the
width -- a larger buffer admits every smaller solution.  *Coverage* and
*packed* gain are not guaranteed monotone: the gain-optimal set at a
larger width can tie-break onto lower-coverage messages, and a fuller
Step-2 set leaves less leftover for sub-group packing.  The planner
reports what each width actually achieves; ``minimal_width_for_coverage``
returns the smallest swept width meeting the target even if a larger
width dips below it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import SelectionError
from repro.runtime.orchestrator import orchestrate
from repro.selection.selector import MessageSelector, SelectionResult


@dataclass(frozen=True)
class PlanPoint:
    """Selection outcome at one candidate buffer width."""

    width: int
    coverage: float
    gain: float
    utilization: float
    traced: Tuple[str, ...]


@dataclass(frozen=True)
class BufferPlan:
    """A full width sweep plus derived recommendations."""

    points: Tuple[PlanPoint, ...]

    def minimal_width_for_coverage(self, target: float) -> Optional[int]:
        """Smallest swept width whose coverage reaches *target*
        (``None`` if no swept width does)."""
        for point in self.points:
            if point.coverage >= target:
                return point.width
        return None

    def knee(self) -> PlanPoint:
        """The sweep's diminishing-returns knee: the point with the
        largest coverage-per-bit drop *after* it.

        A simple discrete knee criterion: maximize
        ``coverage[i] - width[i] * slope`` where ``slope`` is the
        overall coverage-per-bit of the sweep -- the point furthest
        above the straight line from first to last.
        """
        first, last = self.points[0], self.points[-1]
        span = last.width - first.width
        if span == 0:
            return first
        slope = (last.coverage - first.coverage) / span
        best = max(
            self.points,
            key=lambda p: p.coverage - (p.width - first.width) * slope,
        )
        return best


def _plan_task(args) -> PlanPoint:
    """Selection at one candidate width (independent work unit)."""
    interleaved, width, subgroup_list, packing = args
    try:
        result: SelectionResult = MessageSelector(
            interleaved, width, subgroups=subgroup_list
        ).select(method="knapsack", packing=packing)
    except SelectionError:
        # nothing fits this width: zero point
        return PlanPoint(
            width=width, coverage=0.0, gain=0.0,
            utilization=0.0, traced=(),
        )
    return PlanPoint(
        width=width,
        coverage=result.coverage,
        gain=result.gain,
        utilization=result.utilization,
        traced=result.traced.names(),
    )


def plan_buffer(
    interleaved: InterleavedFlow,
    widths: Sequence[int] = (8, 12, 16, 20, 24, 28, 32, 40, 48, 64),
    subgroups: Iterable[Message] = (),
    packing: bool = True,
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> BufferPlan:
    """Sweep candidate buffer *widths* over one scenario.

    Each width is an independent selection, so ``jobs>1`` sweeps them
    across a process pool; the plan's point order follows *widths*
    either way.

    Raises
    ------
    SelectionError
        If *widths* is empty or not strictly increasing.
    """
    widths = tuple(widths)
    if not widths:
        raise SelectionError("width sweep needs at least one width")
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise SelectionError(
            f"widths must be strictly increasing, got {widths}"
        )
    subgroup_list = tuple(subgroups)
    points = orchestrate(
        _plan_task,
        [(interleaved, width, subgroup_list, packing) for width in widths],
        jobs=jobs,
        timeout=timeout,
    )
    return BufferPlan(points=tuple(points))


def format_plan(plan: BufferPlan) -> str:
    """Render a plan as an aligned text table with the knee marked."""
    knee = plan.knee()
    lines = ["width  coverage  gain     util    traced"]
    for point in plan.points:
        marker = "  <- knee" if point.width == knee.width else ""
        lines.append(
            f"{point.width:>5}  {point.coverage:>7.2%}  "
            f"{point.gain:>6.3f}  {point.utilization:>6.1%}  "
            f"{len(point.traced)} msgs{marker}"
        )
    return "\n".join(lines)
