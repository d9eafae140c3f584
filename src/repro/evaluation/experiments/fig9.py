"""Experiment drivers for Fig. 9a and Fig. 9b (paper §6).

Fig. 9a compares the overall utility of FTSF, FTSS and FTQS in the
no-fault scenario, across application sizes 10..50; Fig. 9b shows how
FTQS degrades with 1/2/3 faults and that it stays above the static
alternatives even at 3 faults.  Both normalize utilities to FTQS
(no faults = 100%) per application before averaging.

The paper's full scale — 50 applications per size and 20,000 scenarios
per fault count — takes hours in the pure-Python reference loop;
:class:`Fig9Config` scales it down by default and the benches/CLI
expose flags to restore the full numbers (shapes are stable well below
full scale).  The C kernel engine (``execution="kernel"``, the
default) cuts the simulation share of that time by orders of
magnitude with bit-identical results, and a sharded spec
(``"kernel@threads:8"``, ``"kernel@processes:4"``) cuts it further.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.evaluation.metrics import NormalizedTable, format_table
from repro.evaluation.montecarlo import normalized_to
from repro.execution import DEFAULT_ENGINE
from repro.pipeline.runner import ExperimentRunner
from repro.quasistatic.ftqs import FTQSConfig
from repro.scheduling.ftsf import ftsf
from repro.workloads.suite import WorkloadSpec

import numpy as np


@dataclass(frozen=True)
class Fig9Config:
    """Scale knobs of the Fig. 9 experiments."""

    sizes: Tuple[int, ...] = (10, 15, 20, 25, 30, 35, 40, 45, 50)
    apps_per_size: int = 5
    n_scenarios: int = 100
    max_schedules: int = 8
    k: int = 3
    mu: int = 15
    seed: int = 2008
    execution: str = DEFAULT_ENGINE

    @classmethod
    def paper_scale(cls) -> "Fig9Config":
        """The paper's full §6 parameters (expensive)."""
        return cls(apps_per_size=50, n_scenarios=20000, max_schedules=16)


@dataclass
class Fig9Row:
    """One plotted point: size × approach × fault count → mean %."""

    size: int
    approach: str
    faults: int
    utility_percent: float
    n_apps: int


class Fig9Runner(ExperimentRunner):
    """Fig. 9 as a pipeline spec: an application-size grid, three
    approaches per application.

    For each application: build FTSS (static), FTSF (baseline) and the
    FTQS tree, replay identical scenario sets for each fault count
    against all three, and normalize mean utilities to FTQS/no-faults.
    One evaluator serves all three plans of an application, its
    scenario segments released before the next application; with
    process sharding the worker processes are the run-wide pool of the
    :class:`~repro.pipeline.resources.ResourceManager`.
    """

    def __init__(
        self,
        config: Fig9Config = Fig9Config(),
        faults_for_statics: Tuple[int, ...] = (0, 3),
        **kwargs,
    ):
        super().__init__(execution=config.execution, **kwargs)
        self.config = config
        self.faults_for_statics = faults_for_statics

    def _run(self) -> List[Fig9Row]:
        config = self.config
        rng = np.random.default_rng(config.seed)
        tables: Dict[int, NormalizedTable] = {
            s: NormalizedTable() for s in config.sizes
        }
        counts: Dict[int, int] = {s: 0 for s in config.sizes}

        for size in config.sizes:
            spec = WorkloadSpec(
                n_processes=size, k=config.k, mu=config.mu
            )
            produced = 0
            for app, root in (
                self.candidates(
                    spec, rng, max_attempts=config.apps_per_size * 4
                )
                if config.apps_per_size > 0
                else ()
            ):
                baseline = ftsf(app)
                if baseline is None:
                    continue
                tree = self.synthesize(
                    app, root, FTQSConfig(max_schedules=config.max_schedules)
                )
                with self.evaluator(
                    app,
                    n_scenarios=config.n_scenarios,
                    fault_counts=list(range(config.k + 1)),
                    seed=config.seed + produced,
                ) as evaluator:
                    results = evaluator.compare(
                        {"FTQS": tree, "FTSS": root, "FTSF": baseline}
                    )
                percents = normalized_to(
                    results, "FTQS", reference_faults=0
                )
                for approach, per_fault in percents.items():
                    for faults, percent in per_fault.items():
                        if (
                            approach != "FTQS"
                            and faults not in self.faults_for_statics
                        ):
                            continue
                        tables[size].add(approach, faults, percent)
                produced += 1
                if produced >= config.apps_per_size:
                    break
            counts[size] = produced

        return self._rows(tables, counts)

    def _rows(self, tables, counts) -> List[Fig9Row]:
        config = self.config
        rows: List[Fig9Row] = []
        for size in config.sizes:
            table = tables[size]
            for approach in table.approaches():
                for faults in table.fault_counts():
                    stats = table.cell(approach, faults)
                    if stats.count == 0:
                        continue
                    rows.append(
                        Fig9Row(
                            size=size,
                            approach=approach,
                            faults=faults,
                            utility_percent=stats.mean,
                            n_apps=counts[size],
                        )
                    )
        return rows


def run_fig9(
    config: Fig9Config = Fig9Config(),
    faults_for_statics: Tuple[int, ...] = (0, 3),
    *,
    stats=None,
    resources=None,
    store=None,
    checkpoint=None,
) -> List[Fig9Row]:
    """Run the Fig. 9 experiment; returns all (size, approach, faults)
    points for both panels.

    A thin wrapper over :class:`Fig9Runner`; ``resources``/``store``/
    ``checkpoint`` are the pipeline's shared worker pools, tree cache
    and resume journal (see :mod:`repro.pipeline`).
    """
    return Fig9Runner(
        config,
        faults_for_statics,
        stats=stats,
        resources=resources,
        store=store,
        checkpoint=checkpoint,
    ).run()


def fig9a_rows(rows: List[Fig9Row]) -> List[Fig9Row]:
    """Panel (a): the no-fault series of all three approaches."""
    return [r for r in rows if r.faults == 0]


def fig9b_rows(rows: List[Fig9Row]) -> List[Fig9Row]:
    """Panel (b): FTQS at 0..3 faults, statics at 3 faults."""
    return [
        r
        for r in rows
        if r.approach == "FTQS" or r.faults > 0
    ]


def format_fig9(rows: List[Fig9Row], panel: str) -> str:
    """Render a panel as the paper's series (one column per size)."""
    selected = fig9a_rows(rows) if panel == "a" else fig9b_rows(rows)
    sizes = sorted({r.size for r in selected})
    series = sorted({(r.approach, r.faults) for r in selected})
    headers = ["series"] + [str(s) for s in sizes]
    body = []
    for approach, faults in series:
        label = f"{approach} ({faults} faults)"
        row: List[object] = [label]
        for size in sizes:
            match = [
                r.utility_percent
                for r in selected
                if r.size == size and r.approach == approach and r.faults == faults
            ]
            row.append(match[0] if match else float("nan"))
        body.append(row)
    title = (
        "Fig. 9a — utility normalized to FTQS (no faults), %"
        if panel == "a"
        else "Fig. 9b — utility normalized to FTQS (no faults), %, fault scenarios"
    )
    return format_table(headers, body, title=title)
