"""Validation campaigns: many failing runs of the same buggy design.

A post-silicon lab does not debug from one trace: the failing test is
re-run (silicon is fast), each run takes a different interleaving, and
evidence accumulates.  A :class:`ValidationCampaign` replays a case
study over many seeds and aggregates the debugging statistics -- this
is what makes our measured "messages investigated" comparable in
magnitude to the paper's Table 6 (25-199 messages over weeks of
validation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.debug.bugs import Bug
from repro.debug.ippairs import IPPair
from repro.debug.rootcause import RootCause
from repro.debug.session import DebugReport, DebugSession
from repro.errors import DebugSessionError
from repro.runtime.orchestrator import orchestrate


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated statistics over a campaign's failing runs.

    Attributes
    ----------
    reports:
        The per-run debug reports, in seed order.
    total_messages_investigated:
        Sum over runs (the Table-6 "messages investigated" analogue).
    pairs_investigated:
        Union of IP pairs examined across runs.
    plausible_causes:
        Intersection of each run's plausible causes: a cause must
        survive *every* run's evidence to stay plausible.
    best_localization:
        The tightest per-run localization fraction.
    """

    reports: Tuple[DebugReport, ...]
    total_messages_investigated: int
    pairs_investigated: FrozenSet[IPPair]
    plausible_causes: Tuple[RootCause, ...]
    best_localization: float

    @property
    def runs(self) -> int:
        return len(self.reports)

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the cause catalog eliminated after all runs."""
        total = self.reports[0].pruning.total if self.reports else 0
        if total == 0:
            return 0.0
        return 1.0 - len(self.plausible_causes) / total

    @property
    def buggy_ip_is_plausible(self) -> bool:
        bug = self.reports[0].bug if self.reports else None
        return bug is not None and any(
            c.ip == bug.ip for c in self.plausible_causes
        )


class ValidationCampaign:
    """Replays a debugging session across many seeds.

    Parameters
    ----------
    session:
        A configured :class:`~repro.debug.session.DebugSession` (the
        scenario, traced set, and cause catalog stay fixed; only the
        run's interleaving varies).
    """

    def __init__(self, session: DebugSession) -> None:
        self.session = session

    def run(
        self,
        bug: Bug,
        seeds: Sequence[int],
        jobs: int = 1,
        timeout: Optional[float] = None,
    ) -> CampaignResult:
        """Run the failing test once per seed and aggregate.

        Seeds whose run leaves the bug dormant (its message never
        occurred in that interleaving) are skipped -- real labs also
        see passing re-runs.  ``jobs>1`` replays the seeds across a
        process pool; reports stay in seed order, so the aggregate is
        identical to a serial campaign.

        Raises
        ------
        DebugSessionError
            If *seeds* is empty or the bug is dormant in every run.
        """
        if not seeds:
            raise DebugSessionError("campaign needs at least one seed")
        outcomes = orchestrate(
            _campaign_task,
            [(self.session, bug, seed) for seed in seeds],
            jobs=jobs,
            timeout=timeout,
        )
        reports: List[DebugReport] = [r for r in outcomes if r is not None]
        if not reports:
            raise DebugSessionError(
                f"bug#{bug.bug_id} was dormant in every one of the "
                f"{len(seeds)} runs"
            )
        plausible_ids: Set[int] = {
            c.cause_id for c in reports[0].pruning.plausible
        }
        for report in reports[1:]:
            plausible_ids &= {
                c.cause_id for c in report.pruning.plausible
            }
        plausible = tuple(
            c
            for c in reports[0].pruning.plausible
            if c.cause_id in plausible_ids
        )
        pairs: Set[IPPair] = set()
        for report in reports:
            pairs |= report.pairs_investigated
        return CampaignResult(
            reports=tuple(reports),
            total_messages_investigated=sum(
                r.messages_investigated for r in reports
            ),
            pairs_investigated=frozenset(pairs),
            plausible_causes=plausible,
            best_localization=min(
                r.localization.fraction for r in reports
            ),
        )


def _campaign_task(
    args: Tuple[DebugSession, Bug, int]
) -> Optional[DebugReport]:
    """One failing run; ``None`` when the bug stays dormant."""
    session, bug, seed = args
    try:
        return session.run(bug, seed=seed)
    except DebugSessionError:
        return None
