"""Experiment driver for Table 1 (paper §6, third experiment set).

The paper fixes 50 applications with 30 processes each (half hard,
half soft) and sweeps the quasi-static tree size M over
{1, 2, 8, 13, 23, 34, 79, 89} nodes.  For each M it reports the mean
utility normalized to FTSS (the single f-schedule, M = 1) under 0, 1,
2 and 3 faults, plus the scheduler's construction run time.  The
paper's trend: utility rises quickly with the first handful of nodes
(+11% at 2, +21% at 8) and saturates around +26%, while run time grows
steeply with M.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.evaluation.metrics import NormalizedTable, format_table
from repro.execution import DEFAULT_ENGINE
from repro.pipeline.runner import ExperimentRunner
from repro.quasistatic.ftqs import FTQSConfig
from repro.workloads.suite import WorkloadSpec


@dataclass(frozen=True)
class Table1Config:
    """Scale knobs of the Table 1 experiment."""

    tree_sizes: Tuple[int, ...] = (1, 2, 8, 13, 23, 34, 79, 89)
    n_apps: int = 5
    n_processes: int = 30
    n_scenarios: int = 100
    k: int = 3
    mu: int = 15
    seed: int = 2008
    execution: str = DEFAULT_ENGINE

    @classmethod
    def paper_scale(cls) -> "Table1Config":
        return cls(n_apps=50, n_scenarios=20000)


@dataclass
class Table1Row:
    """One row of Table 1: tree size → normalized utilities + runtime."""

    nodes: int
    utility_percent: Dict[int, float]  # fault count -> mean %
    runtime_seconds: float
    n_apps: int


class Table1Runner(ExperimentRunner):
    """Table 1 as a pipeline spec: one workload point, an M sweep.

    The loop runs application-outer: each application's evaluator (and
    under process sharding its shared-memory scenario segments) is
    reused across the *whole* M sweep — baseline plus every tree size
    — and
    released deterministically before the next application starts.
    Worker processes themselves belong to the run's
    :class:`~repro.pipeline.resources.ResourceManager` and are spawned
    once for all applications.  Values are re-aggregated in the
    original (M, application) order, so the reported rows are
    unchanged.

    The construction-time column measures :meth:`synthesize` — the
    selected engine, or the tree-store load on a cache hit.
    """

    def __init__(self, config: Table1Config = Table1Config(), **kwargs):
        super().__init__(execution=config.execution, **kwargs)
        self.config = config

    def _run(self) -> List[Table1Row]:
        config = self.config
        rng = np.random.default_rng(config.seed)
        spec = WorkloadSpec(
            n_processes=config.n_processes,
            soft_ratio=0.5,
            k=config.k,
            mu=config.mu,
        )
        percents: Dict[int, List[Tuple[int, float]]] = {
            m: [] for m in config.tree_sizes
        }
        runtimes: Dict[int, float] = {m: 0.0 for m in config.tree_sizes}
        produced = 0
        for app, root in (
            self.candidates(spec, rng) if config.n_apps > 0 else ()
        ):
            with self.evaluator(
                app,
                n_scenarios=config.n_scenarios,
                fault_counts=list(range(config.k + 1)),
                seed=config.seed + produced,
            ) as evaluator:
                baseline = evaluator.evaluate(root)
                if baseline[0].mean_utility <= 0:
                    continue
                for m in config.tree_sizes:
                    start = time.perf_counter()
                    if m == 1:
                        plan = root
                    else:
                        plan = self.synthesize(
                            app, root, FTQSConfig(max_schedules=m)
                        )
                    runtimes[m] += time.perf_counter() - start
                    outcome = evaluator.evaluate(plan)
                    for faults in range(config.k + 1):
                        base = baseline[faults].mean_utility
                        if base <= 0:
                            continue
                        percents[m].append(
                            (
                                faults,
                                100.0
                                * outcome[faults].mean_utility
                                / base,
                            )
                        )
                produced += 1
            if produced >= config.n_apps:
                break

        rows: List[Table1Row] = []
        for m in config.tree_sizes:
            table = NormalizedTable()
            for faults, percent in percents[m]:
                table.add("FTQS", faults, percent)
            rows.append(
                Table1Row(
                    nodes=m,
                    utility_percent={
                        faults: table.cell("FTQS", faults).mean
                        for faults in range(config.k + 1)
                    },
                    runtime_seconds=runtimes[m] / max(1, produced),
                    n_apps=produced,
                )
            )
        return rows


def run_table1(
    config: Table1Config = Table1Config(),
    *,
    stats=None,
    resources=None,
    store=None,
    checkpoint=None,
) -> List[Table1Row]:
    """Run the tree-size sweep; returns one row per M.

    A thin wrapper over :class:`Table1Runner`; ``resources``/``store``/
    ``checkpoint`` are the pipeline's shared worker pools, tree cache
    and resume journal (see :mod:`repro.pipeline`).
    """
    return Table1Runner(
        config,
        stats=stats,
        resources=resources,
        store=store,
        checkpoint=checkpoint,
    ).run()


def format_table1(rows: List[Table1Row]) -> str:
    """Render in the paper's Table 1 layout."""
    fault_counts = sorted(rows[0].utility_percent) if rows else []
    headers = ["Nodes"] + [f"{f} faults" for f in fault_counts] + [
        "Run time, sec"
    ]
    body: List[List[object]] = []
    for row in rows:
        cells: List[object] = [row.nodes]
        cells += [row.utility_percent[f] for f in fault_counts]
        cells.append(round(row.runtime_seconds, 2))
        body.append(cells)
    return format_table(
        headers,
        body,
        title="Table 1 — utility normalized to FTSS (%), by tree size",
    )
