"""Ablation experiments for the design choices of FTSS/FTQS.

The paper's heuristics rest on four design choices; each ablation
disables one of them and measures the utility impact on a shared
application suite (paired scenarios, like every other experiment):

* ``no-dropping``   — FTSS without the S'/S'' dropping heuristic
  (drops only when forced by schedulability);
* ``private-slack`` — recovery slack reserved per process instead of
  shared (paper §3's sharing is the fault-tolerance enabler);
* ``no-intervals``  — FTQS switching on the naive "whenever safe"
  rule instead of interval partitioning;
* ``wcet-opt``      — FTSS optimizing utility at worst-case instead of
  average-case execution times (the Fig. 4 argument).

A fifth row measures the fully-online re-planning straw man of §1 —
its utility *and* its scheduling overhead per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.evaluation.metrics import NormalizedTable, format_table
from repro.pipeline.runner import ExperimentRunner
from repro.quasistatic.ftqs import FTQSConfig
from repro.runtime.replanner import run_replanning
from repro.scheduling.ftss import FTSSConfig, ftss
from repro.workloads.suite import WorkloadSpec


@dataclass(frozen=True)
class AblationConfig:
    """Scale knobs of the ablation experiments."""

    n_apps: int = 5
    n_processes: int = 30
    n_scenarios: int = 100
    max_schedules: int = 8
    k: int = 3
    mu: int = 15
    seed: int = 2008
    include_replanner: bool = True
    replanner_scenarios: int = 10
    execution: str = "batched"


#: Configurations attempted per application; used to report how often
#: each one failed to produce any schedule at all (private slack
#: typically cannot schedule a loaded application — slack *sharing* is
#: what makes the fault tolerance affordable, paper §3).
ABLATED_FTSS_CONFIGS = {
    "no-dropping": FTSSConfig(drop_heuristic=False),
    "private-slack": FTSSConfig(slack_sharing=False),
    "wcet-opt": FTSSConfig(optimize_for="wcet"),
}


@dataclass
class AblationRow:
    """Utility (and optional overhead) of one configuration."""

    name: str
    utility_percent: Dict[int, float]  # fault count -> mean % vs default
    overhead_ms: Optional[float] = None  # scheduling time per cycle
    schedulable_fraction: float = 1.0  # apps this config could schedule


class AblationRunner(ExperimentRunner):
    """The ablation battery as a pipeline spec: one workload point,
    many plans per application (ablated FTSS variants + FTQS ablation
    configs), normalized to the default FTSS.

    Every FTQS variant goes through :meth:`synthesize`, so with a tree
    store attached each (application, ablation config) pair caches
    independently — the config is part of the content address.
    """

    def __init__(self, config: AblationConfig = AblationConfig(), **kwargs):
        super().__init__(execution=config.execution, **kwargs)
        self.config = config

    def _build_plans(self, app, root):
        """All ablated plans for one application (None entries
        skipped)."""
        config = self.config
        plans = {}
        for name, ftss_config in ABLATED_FTSS_CONFIGS.items():
            plan = ftss(app, config=ftss_config)
            if plan is not None:
                plans[name] = plan
        plans["no-intervals"] = self.synthesize(
            app,
            root,
            FTQSConfig(
                max_schedules=config.max_schedules,
                use_interval_partitioning=False,
            ),
        )
        plans["no-fault-children"] = self.synthesize(
            app,
            root,
            FTQSConfig(
                max_schedules=config.max_schedules,
                fault_children=False,
            ),
        )
        plans["ftqs-default"] = self.synthesize(
            app, root, FTQSConfig(max_schedules=config.max_schedules)
        )
        plans["ftss-default"] = root
        return plans

    def _run(self) -> List[AblationRow]:
        config = self.config
        rng = np.random.default_rng(config.seed)
        spec = WorkloadSpec(
            n_processes=config.n_processes, k=config.k, mu=config.mu
        )
        table = NormalizedTable()
        overhead: Dict[str, List[float]] = {}
        scheduled_counts: Dict[str, int] = {}

        produced = 0
        for app, root in (
            self.candidates(spec, rng, max_attempts=4 * config.n_apps)
            if config.n_apps > 0
            else ()
        ):
            plans = self._build_plans(app, root)
            for name in ABLATED_FTSS_CONFIGS:
                scheduled_counts.setdefault(name, 0)
                if name in plans:
                    scheduled_counts[name] += 1
            with self.evaluator(
                app,
                n_scenarios=config.n_scenarios,
                fault_counts=list(range(config.k + 1)),
                seed=config.seed + produced,
            ) as evaluator:
                results = evaluator.compare(plans)
                base = results["ftss-default"]
                for name, outcome in results.items():
                    for faults in range(config.k + 1):
                        denom = base[faults].mean_utility
                        if denom <= 0:
                            continue
                        table.add(
                            name,
                            faults,
                            100.0 * outcome[faults].mean_utility / denom,
                        )
                if config.include_replanner:
                    utils = []
                    seconds = []
                    for scenario in evaluator.scenarios[0][
                        : config.replanner_scenarios
                    ]:
                        outcome = run_replanning(app, scenario)
                        utils.append(outcome.result.utility)
                        seconds.append(outcome.scheduling_seconds)
                    denom = base[0].mean_utility
                    if denom > 0 and utils:
                        table.add(
                            "online-replan",
                            0,
                            100.0 * float(np.mean(utils)) / denom,
                        )
                        overhead.setdefault("online-replan", []).append(
                            1000.0 * float(np.mean(seconds))
                        )
            produced += 1
            if produced >= config.n_apps:
                break

        rows: List[AblationRow] = []
        row_names = set(table.approaches()) | set(scheduled_counts)
        for name in sorted(row_names):
            per_fault = {
                f: table.cell(name, f).mean
                for f in table.fault_counts()
                if table.cell(name, f).count > 0
            }
            mean_overhead = None
            if name in overhead:
                mean_overhead = float(np.mean(overhead[name]))
            fraction = 1.0
            if name in scheduled_counts and produced > 0:
                fraction = scheduled_counts[name] / produced
            rows.append(
                AblationRow(
                    name=name,
                    utility_percent=per_fault,
                    overhead_ms=mean_overhead,
                    schedulable_fraction=fraction,
                )
            )
        return rows


def run_ablations(
    config: AblationConfig = AblationConfig(),
    *,
    synthesis: str = "fast",
    synthesis_jobs: int = 1,
    stats=None,
    resources=None,
    store=None,
    checkpoint=None,
) -> List[AblationRow]:
    """Run all ablations; utilities are normalized to ``ftss-default``.

    The FTSS ablations answer "how much does this FTSS design choice
    contribute to the static schedule's utility"; the FTQS rows answer
    the same for the tree construction.  A thin wrapper over
    :class:`AblationRunner`; ``resources``/``store``/``checkpoint``
    are the pipeline's shared worker pools, tree cache and resume
    journal.
    """
    return AblationRunner(
        config,
        synthesis=synthesis,
        synthesis_jobs=synthesis_jobs,
        stats=stats,
        resources=resources,
        store=store,
        checkpoint=checkpoint,
    ).run()


def format_ablations(rows: List[AblationRow]) -> str:
    fault_counts = sorted(
        {f for row in rows for f in row.utility_percent}
    )
    headers = (
        ["configuration"]
        + [f"{f} faults" for f in fault_counts]
        + ["sched ms/cycle", "schedulable"]
    )
    body: List[List[object]] = []
    for row in rows:
        cells: List[object] = [row.name]
        for f in fault_counts:
            cells.append(row.utility_percent.get(f, float("nan")))
        cells.append(
            "-" if row.overhead_ms is None else round(row.overhead_ms, 1)
        )
        cells.append(f"{100 * row.schedulable_fraction:.0f}%")
        body.append(cells)
    return format_table(
        headers,
        body,
        title="Ablations — utility normalized to default FTSS (%)",
    )
