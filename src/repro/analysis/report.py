"""Synthesis reports: a human-readable summary of one application's
scheduling outcome.

:func:`synthesis_report` runs the full pipeline (FTSS root, FTSF
baseline, FTQS tree, paired Monte-Carlo evaluation) on one application
and renders a markdown report a systems engineer can review: what was
scheduled, what was dropped and why it is safe, how the tree is laid
out, and how the approaches compare on identical scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import UnschedulableError
from repro.evaluation.montecarlo import MonteCarloEvaluator, normalized_to
from repro.execution import DEFAULT_ENGINE
from repro.model.application import Application
from repro.pipeline.runner import synthesize_tree
from repro.quasistatic.ftqs import FTQSConfig
from repro.quasistatic.tree import QSTree
from repro.scheduling.fschedule import FSchedule
from repro.scheduling.ftsf import ftsf
from repro.scheduling.ftss import ftss


@dataclass
class SynthesisReport:
    """All artifacts produced for one application."""

    app: Application
    root: FSchedule
    tree: QSTree
    baseline: Optional[FSchedule]
    utilities: Dict[str, Dict[int, float]]  # approach -> faults -> %

    def to_markdown(self) -> str:
        app = self.app
        lines: List[str] = []
        lines.append("# Schedule synthesis report")
        lines.append("")
        lines.append(
            f"- processes: {len(app)} ({len(app.hard)} hard, "
            f"{len(app.soft)} soft)"
        )
        lines.append(
            f"- period T = {app.period}, fault budget k = {app.k}, "
            f"recovery overhead mu = {app.mu}"
        )
        load = app.worst_case_load()
        pressure = load / app.period
        lines.append(
            f"- worst-case load {load} ({100 * pressure:.0f}% of the "
            f"period{' — overloaded; dropping required' if pressure > 1 else ''})"
        )
        lines.append("")
        lines.append("## Root f-schedule (FTSS)")
        lines.append("")
        lines.append(f"- order: {' -> '.join(self.root.order)}")
        caps = {
            e.name: e.reexecutions
            for e in self.root.entries
            if e.reexecutions > 0
        }
        lines.append(f"- re-execution caps: {caps if caps else 'none'}")
        dropped = sorted(self.root.dropped)
        lines.append(
            f"- statically dropped soft processes: "
            f"{', '.join(dropped) if dropped else 'none'}"
        )
        lines.append(
            f"- worst-case makespan {self.root.worst_case_makespan()} "
            f"<= T = {app.period}"
        )
        lines.append("")
        lines.append("## Quasi-static tree (FTQS)")
        lines.append("")
        lines.append(
            f"- {len(self.tree)} nodes / "
            f"{self.tree.different_schedules()} distinct schedules, "
            f"depth {self.tree.depth()}"
        )
        n_arcs = sum(len(n.arcs) for n in self.tree.nodes())
        lines.append(f"- {n_arcs} switch arcs")
        for node in self.tree.nodes():
            for arc in node.arcs:
                lines.append(
                    f"  - node {node.node_id}: after `{arc.process}` in "
                    f"[{arc.lo}, {arc.hi}]"
                    + (
                        f" (>= {arc.required_faults} faults observed)"
                        if arc.required_faults
                        else ""
                    )
                    + f" -> node {arc.target}"
                )
        lines.append("")
        lines.append("## Evaluation (paired scenarios, % of FTQS no-fault)")
        lines.append("")
        fault_counts = sorted(
            next(iter(self.utilities.values())).keys()
        )
        header = "| approach | " + " | ".join(
            f"{f} faults" for f in fault_counts
        ) + " |"
        lines.append(header)
        lines.append("|" + "---|" * (len(fault_counts) + 1))
        for approach, per_fault in self.utilities.items():
            row = f"| {approach} | " + " | ".join(
                f"{per_fault[f]:.1f}" for f in fault_counts
            ) + " |"
            lines.append(row)
        lines.append("")
        return "\n".join(lines)


def synthesis_report(
    app: Application,
    max_schedules: int = 8,
    n_scenarios: int = 200,
    seed: int = 1,
    execution=DEFAULT_ENGINE,
    stats=None,
    resources=None,
    store=None,
) -> SynthesisReport:
    """Run the full pipeline on ``app`` and assemble the report.

    ``resources`` routes the evaluation through the shared worker
    pools and ``store`` the synthesis through the content-addressed
    tree cache of :mod:`repro.pipeline`, when provided.
    """
    root = ftss(app)
    if root is None:
        raise UnschedulableError(
            "the application admits no fault-tolerant schedule"
        )
    tree = synthesize_tree(
        app,
        root,
        FTQSConfig(max_schedules=max_schedules),
        stats=stats,
        store=store,
    )
    baseline = ftsf(app)
    plans = {"FTQS": tree, "FTSS": root}
    if baseline is not None:
        plans["FTSF"] = baseline
    with MonteCarloEvaluator(
        app,
        n_scenarios=n_scenarios,
        seed=seed,
        execution=execution,
        resources=resources,
    ) as evaluator:
        results = evaluator.compare(plans)
    utilities = normalized_to(results, "FTQS", reference_faults=0)
    return SynthesisReport(
        app=app,
        root=root,
        tree=tree,
        baseline=baseline,
        utilities=utilities,
    )
