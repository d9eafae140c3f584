"""Extension experiments: parameter sweeps the paper holds fixed.

The paper fixes the hard/soft mix at 50/50 (Table 1) and the fault
budget at k = 3 (Fig. 9) / k = 2 (CC).  Two sweeps characterize how
the FTQS-over-FTSS advantage moves with those choices:

* :func:`run_soft_ratio_sweep` — from almost-all-hard (nothing to
  adapt, the tree degenerates) to all-soft (everything is adaptable);
* :func:`run_fault_budget_sweep` — k = 0 (no recovery slack; FTQS
  reduces to the quasi-static scheduling of Cortes et al. [3]) up to
  k = 4 (recovery slack dominates the schedule).

Both report, per sweep point: the FTQS utility normalized to FTSS on
paired scenarios, the fraction of soft processes the root schedule had
to drop, and the tree construction time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.evaluation.metrics import format_table
from repro.execution import DEFAULT_ENGINE
from repro.pipeline.runner import ExperimentRunner
from repro.quasistatic.ftqs import FTQSConfig
from repro.workloads.suite import WorkloadSpec


@dataclass(frozen=True)
class SweepConfig:
    """Shared knobs of both sweeps."""

    n_apps: int = 4
    n_processes: int = 20
    n_scenarios: int = 100
    max_schedules: int = 8
    mu: int = 15
    seed: int = 2008
    period_pressure: Tuple[float, float] = (0.75, 0.95)
    execution: str = DEFAULT_ENGINE


@dataclass
class SweepRow:
    """One sweep point, averaged over the applications."""

    parameter: float
    ftqs_vs_ftss_percent: float
    dropped_fraction: float
    build_seconds: float
    n_apps: int


class SweepRunner(ExperimentRunner):
    """Both parameter sweeps as one pipeline spec.

    The grid is a list of ``(parameter value, WorkloadSpec)`` points;
    every point runs the same generate → synthesize → compare loop on
    a shared RNG.  Repeated sweep points over identical synthesis
    inputs reload from the tree store when one is attached.
    """

    def __init__(
        self,
        points: List[Tuple[float, WorkloadSpec]],
        config: SweepConfig = SweepConfig(),
        **kwargs,
    ):
        super().__init__(execution=config.execution, **kwargs)
        self.points = points
        self.config = config

    def _evaluate_point(
        self, spec: WorkloadSpec, rng: np.random.Generator
    ) -> SweepRow:
        config = self.config
        gains: List[float] = []
        dropped: List[float] = []
        build: List[float] = []
        produced = 0
        for app, root in (
            self.candidates(spec, rng, max_attempts=4 * config.n_apps)
            if config.n_apps > 0
            else ()
        ):
            start = time.perf_counter()
            tree = self.synthesize(
                app, root, FTQSConfig(max_schedules=config.max_schedules)
            )
            build.append(time.perf_counter() - start)
            fault_counts = [0] if app.k == 0 else [0, min(1, app.k)]
            with self.evaluator(
                app,
                n_scenarios=config.n_scenarios,
                fault_counts=fault_counts,
                seed=config.seed + produced,
            ) as evaluator:
                results = evaluator.compare({"tree": tree, "root": root})
            base = results["root"][0].mean_utility
            if base > 0:
                gains.append(
                    100.0 * results["tree"][0].mean_utility / base
                )
            n_soft = len(app.soft)
            if n_soft:
                dropped.append(len(root.dropped) / n_soft)
            else:
                dropped.append(0.0)
            produced += 1
            if produced >= config.n_apps:
                break
        return SweepRow(
            parameter=0.0,  # filled per point below
            ftqs_vs_ftss_percent=(
                float(np.mean(gains)) if gains else float("nan")
            ),
            dropped_fraction=float(np.mean(dropped)) if dropped else 0.0,
            build_seconds=float(np.mean(build)) if build else 0.0,
            n_apps=produced,
        )

    def _run(self) -> List[SweepRow]:
        rng = np.random.default_rng(self.config.seed)
        rows: List[SweepRow] = []
        for parameter, spec in self.points:
            row = self._evaluate_point(spec, rng)
            row.parameter = parameter
            rows.append(row)
        return rows


def _run_sweep(
    points: List[Tuple[float, WorkloadSpec]],
    config: SweepConfig,
    stats,
    resources,
    store,
    checkpoint=None,
) -> List[SweepRow]:
    return SweepRunner(
        points,
        config,
        stats=stats,
        resources=resources,
        store=store,
        checkpoint=checkpoint,
    ).run()


def run_soft_ratio_sweep(
    ratios: Tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8),
    config: SweepConfig = SweepConfig(),
    k: int = 3,
    *,
    stats=None,
    resources=None,
    store=None,
    checkpoint=None,
) -> List[SweepRow]:
    """Sweep the soft-process fraction at fixed k."""
    points = [
        (
            ratio,
            WorkloadSpec(
                n_processes=config.n_processes,
                soft_ratio=ratio,
                k=k,
                mu=config.mu,
                period_pressure_range=config.period_pressure,
            ),
        )
        for ratio in ratios
    ]
    return _run_sweep(
        points,
        config,
        stats,
        resources,
        store,
        checkpoint,
    )


def run_fault_budget_sweep(
    budgets: Tuple[int, ...] = (0, 1, 2, 3, 4),
    config: SweepConfig = SweepConfig(),
    soft_ratio: float = 0.5,
    *,
    stats=None,
    resources=None,
    store=None,
    checkpoint=None,
) -> List[SweepRow]:
    """Sweep the fault budget k at a fixed hard/soft mix."""
    points = [
        (
            float(k),
            WorkloadSpec(
                n_processes=config.n_processes,
                soft_ratio=soft_ratio,
                k=k,
                mu=config.mu,
                period_pressure_range=config.period_pressure,
            ),
        )
        for k in budgets
    ]
    return _run_sweep(
        points,
        config,
        stats,
        resources,
        store,
        checkpoint,
    )


def format_sweep(rows: List[SweepRow], parameter_name: str) -> str:
    headers = [
        parameter_name,
        "FTQS vs FTSS (%)",
        "root dropped (%)",
        "build (s)",
        "apps",
    ]
    body = [
        [
            row.parameter,
            row.ftqs_vs_ftss_percent,
            100.0 * row.dropped_fraction,
            round(row.build_seconds, 2),
            row.n_apps,
        ]
        for row in rows
    ]
    return format_table(
        headers, body, title=f"Sweep over {parameter_name}"
    )
