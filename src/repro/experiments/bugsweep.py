"""Bug sweep: debug every catalog bug, not just the five case studies.

A robustness extension beyond the paper's evaluation: inject each of
the 36 catalog bugs into every usage scenario that carries its target
message, run the full debugging session, and tally how often the
traced messages (a) produce a detectable symptom, (b) prune most of
the cause catalog, and (c) keep the truly buggy IP among the plausible
causes.  Bugs whose malfunction has no counterpart in the scenario's
root-cause catalog are reported separately -- a validator would extend
the catalog for those, which is exactly how the paper describes
root-cause knowledge accumulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.debug.bugs import BUG_CATALOG, Bug
from repro.debug.rootcause import root_cause_catalog
from repro.debug.session import DebugSession
from repro.errors import DebugSessionError
from repro.experiments.common import render_table, scenario_selection
from repro.runtime.orchestrator import orchestrate
from repro.soc.t2.scenarios import usage_scenarios


@dataclass(frozen=True)
class SweepEntry:
    """Outcome of debugging one (bug, scenario) pair."""

    bug_id: int
    scenario_number: int
    symptom: str
    pruned_fraction: float
    ip_implicated: bool
    localization: float
    plausible_count: int

    @property
    def is_catalog_gap(self) -> bool:
        """Every cause pruned: the malfunction is outside the
        scenario's root-cause catalog and the validator would extend
        it (the paper's causes accumulated the same way)."""
        return self.plausible_count == 0


@dataclass(frozen=True)
class SweepResult:
    entries: Tuple[SweepEntry, ...]
    dormant: Tuple[Tuple[int, int], ...]  # (bug, scenario) never fired

    @property
    def covered(self) -> Tuple[SweepEntry, ...]:
        """Runs whose evidence matched at least one catalog cause."""
        return tuple(e for e in self.entries if not e.is_catalog_gap)

    @property
    def catalog_gaps(self) -> Tuple[SweepEntry, ...]:
        return tuple(e for e in self.entries if e.is_catalog_gap)

    @property
    def implicated_fraction(self) -> float:
        """Fraction of covered runs keeping the true IP plausible."""
        covered = self.covered
        if not covered:
            return 0.0
        hits = sum(1 for e in covered if e.ip_implicated)
        return hits / len(covered)

    @property
    def mean_pruned(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e.pruned_fraction for e in self.entries) / len(
            self.entries
        )


#: (number, instances) -> DebugSession, memoized per worker process so
#: a pool worker builds each scenario's session at most once.
_SESSIONS: Dict[Tuple[int, int], DebugSession] = {}


def _sweep_session(number: int, instances: int) -> DebugSession:
    key = (number, instances)
    if key not in _SESSIONS:
        bundle = scenario_selection(number, instances)
        _SESSIONS[key] = DebugSession(
            bundle.scenario,
            bundle.with_packing.traced,
            root_cause_catalog(number),
        )
    return _SESSIONS[key]


def _sweep_task(
    args: Tuple[int, int, int, int]
) -> Optional[SweepEntry]:
    """Debug one (bug, scenario) pair; ``None`` marks a dormant run."""
    bug_id, number, instances, seed = args
    session = _sweep_session(number, instances)
    try:
        report = session.run(BUG_CATALOG[bug_id], seed=seed)
    except DebugSessionError:
        return None
    return SweepEntry(
        bug_id=bug_id,
        scenario_number=number,
        symptom=report.symptom_kind,
        pruned_fraction=report.pruned_fraction,
        ip_implicated=report.buggy_ip_is_plausible,
        localization=report.localization.fraction,
        plausible_count=len(report.plausible_causes),
    )


def bug_sweep(
    seed: int = 1234,
    instances: int = 1,
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> SweepResult:
    """Inject and debug every catalog bug in every applicable scenario.

    ``jobs>1`` fans the (bug, scenario) pairs out over a process pool;
    results are assembled in task order, so the outcome is identical
    to a serial sweep.
    """
    pools = {
        number: {m.name for m in sc.message_pool}
        for number, sc in usage_scenarios(instances=instances).items()
    }
    tasks: List[Tuple[int, int, int, int]] = [
        (bug.bug_id, number, instances, seed + bug.bug_id)
        for bug in BUG_CATALOG.values()
        for number in (1, 2, 3)
        if bug.effect.message in pools[number]
    ]
    outcomes = orchestrate(_sweep_task, tasks, jobs=jobs, timeout=timeout)
    entries: List[SweepEntry] = []
    dormant: List[Tuple[int, int]] = []
    for task, outcome in zip(tasks, outcomes):
        if outcome is None:
            dormant.append((task[0], task[1]))
        else:
            entries.append(outcome)
    return SweepResult(entries=tuple(entries), dormant=tuple(dormant))


def format_bug_sweep(result: SweepResult) -> str:
    headers = ["Bug", "Scenario", "Symptom", "Pruned", "True IP kept",
               "Localization"]
    body = [
        [
            e.bug_id,
            e.scenario_number,
            e.symptom,
            f"{e.pruned_fraction:.0%}",
            "yes" if e.ip_implicated else "NO",
            f"{e.localization:.2%}",
        ]
        for e in result.entries
    ]
    table = render_table(headers, body, title="Bug sweep (all catalog bugs)")
    return table + (
        f"\n{len(result.entries)} debugged runs "
        f"({len(result.catalog_gaps)} outside the cause catalogs); "
        f"true IP kept plausible in {result.implicated_fraction:.0%} of "
        f"covered runs; mean pruning {result.mean_pruned:.0%}; "
        f"dormant pairs: {len(result.dormant)}"
    )
