"""One-shot markdown reproduction report.

``build_report`` regenerates every experiment and assembles a
self-contained markdown document -- measured tables in code fences,
each introduced by what the paper reports for the same artifact.  CI
can archive the output next to the benchmark JSON
(:mod:`repro.experiments.export`) to track the reproduction over time.

The artifact registry here (:data:`ARTIFACT_TITLES`,
:func:`render_artifact`) is shared with ``python -m repro tables``;
because each artifact renders independently, both callers accept
``jobs>1`` and fan the renders out through the runtime orchestrator.
"""

from __future__ import annotations

from typing import List, Tuple

from repro import __version__
from repro.runtime.orchestrator import orchestrate

_PAPER_NOTES = {
    "Table 1": "Scenario composition, flow shapes, and root-cause "
               "counts (9/8/9) match the paper exactly.",
    "Table 2": "The four representative bugs are modelled one-for-one "
               "(depth, category, functional implication, buggy IP).",
    "Table 3": "Paper: utilization 71.87-93.75% (WoP) vs 96.88-100% "
               "(WP); coverage 77.78-97.22% vs 83.33-99.86%; "
               "localization 2.47-6.11% vs 0.10-0.31%.",
    "Table 4": "Paper: SigSeT 9%, PRNet 23.8%, InfoGain 93.65% flow "
               "specification coverage; both baselines miss the PID "
               "select signals.",
    "Table 5": "Paper: bugs affect at most 4 messages each; m9/m15 "
               "are affected but too wide (> 32 bits) to select.",
    "Table 6": "Paper: 54.67% of legal IP pairs investigated on "
               "average; root-caused functions as listed.",
    "Table 7": "Paper shows three of the nine Scenario-1 causes; the "
               "Section-5.7 session prunes 8 of 9 (88.89%).",
    "Figure 5": "Paper: coverage increases monotonically with mutual "
                "information gain in all three scenarios.",
    "Figure 6": "Paper: every investigated traced message eliminates "
                "candidate IP pairs and root causes.",
    "Figure 7": "Paper: 78.89% of causes pruned on average "
                "(max 88.89%).",
    "Reconstruction": "Paper (Section 1): existing selection methods "
                      "reconstruct no more than 26% of required "
                      "interface messages; flow-level selection 100%.",
    "Headline": "Paper abstract: 98.96% average utilization, 94.3% "
                "average coverage, <= 6.11% localization, 78.89% "
                "average pruning.",
    "Mining": "No paper counterpart: the paper assumes given flow "
              "specs. This table scores specs mined from simulated "
              "trace corpora (AutoFlows++-style) both structurally "
              "and as drop-in selection inputs.",
    "Compression": "No paper counterpart: the paper's Step 1 treats "
                   "the buffer width as a hard wall. This table "
                   "re-runs selection under a compression-aware "
                   "width x depth bit budget at the same physical "
                   "geometry and reports the coverage/localization "
                   "gained.",
}


#: Renderable artifact names (registry order = report section order)
#: mapped to their section titles.
ARTIFACT_TITLES = {
    "table1": "Table 1",
    "table2": "Table 2",
    "table3": "Table 3",
    "table4": "Table 4",
    "table5": "Table 5",
    "table6": "Table 6",
    "table7": "Table 7",
    "fig5": "Figure 5",
    "fig6": "Figure 6",
    "fig7": "Figure 7",
    "reconstruction": "Reconstruction",
    "headline": "Headline",
    "mining": "Mining",
    "compression": "Compression",
}


def render_artifact(
    name: str, instances: int = 1, plot: bool = False
) -> str:
    """Render one named artifact (module-level, so renders can be
    dispatched to pool workers).  ``plot`` adds the ASCII scatter/step
    plots to fig5/fig6 (the CLI wants them; the markdown report
    doesn't)."""
    if name == "table1":
        from repro.experiments.table1 import format_table1
        return format_table1()
    if name == "table2":
        from repro.experiments.table2 import format_table2
        return format_table2()
    if name == "table3":
        from repro.experiments.table3 import format_table3
        return format_table3(instances)
    if name == "table4":
        from repro.experiments.table4 import format_table4
        return format_table4()
    if name == "table5":
        from repro.experiments.table5 import format_table5
        return format_table5(instances)
    if name == "table6":
        from repro.experiments.table6 import format_table6
        return format_table6(instances)
    if name == "table7":
        from repro.experiments.table7 import format_table7
        return format_table7(instances)
    if name == "fig5":
        from repro.experiments.fig5 import format_fig5
        return format_fig5(instances, plot=plot)
    if name == "fig6":
        from repro.experiments.fig6 import format_fig6
        return format_fig6(instances, plot=plot)
    if name == "fig7":
        from repro.experiments.fig7 import format_fig7
        return format_fig7(instances)
    if name == "reconstruction":
        from repro.experiments.reconstruction import (
            format_reconstruction,
            usb_reconstruction,
        )
        return format_reconstruction(usb_reconstruction())
    if name == "headline":
        from repro.experiments.headline import format_headline
        return format_headline(instances)
    if name == "mining":
        from repro.experiments.mining_eval import format_mining_eval
        return format_mining_eval(instances)
    if name == "compression":
        from repro.experiments.compression_eval import (
            format_compression_eval,
        )
        return format_compression_eval(instances)
    raise KeyError(
        f"unknown artifact {name!r}; choose from "
        f"{', '.join(ARTIFACT_TITLES)}"
    )


def _render_task(args: Tuple[str, int, bool]) -> str:
    name, instances, plot = args
    return render_artifact(name, instances, plot=plot)


def render_artifacts(
    names: List[str],
    instances: int = 1,
    jobs: int = 1,
    plot: bool = False,
) -> List[str]:
    """Render several artifacts, optionally across a process pool
    (each render is independent; output order follows *names*)."""
    return orchestrate(
        _render_task,
        [(name, instances, plot) for name in names],
        jobs=jobs,
    )


def build_report(instances: int = 1, jobs: int = 1) -> str:
    """Regenerate everything and return the markdown report."""
    names = list(ARTIFACT_TITLES)
    bodies = render_artifacts(names, instances=instances, jobs=jobs)
    sections = [
        (ARTIFACT_TITLES[name], body)
        for name, body in zip(names, bodies)
    ]
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Pal et al., *Application Level Hardware Tracing for Scaling "
        "Post-Silicon Debug*, DAC 2018.",
        "",
        f"Library version {__version__}; {instances} concurrent "
        f"instance(s) per scenario flow.",
        "",
    ]
    for title, body in sections:
        lines.append(f"## {title}")
        lines.append("")
        note = _PAPER_NOTES.get(title)
        if note:
            lines.append(f"*Paper:* {note}")
            lines.append("")
        lines.append("```text")
        lines.append(body)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
