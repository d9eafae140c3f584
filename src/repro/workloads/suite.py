"""Application generation: the paper's synthetic benchmark suites (§6).

:func:`generate_application` assembles a complete
:class:`~repro.model.Application` from the structure, timing, utility
and deadline generators, with all randomness flowing through one seed.
:func:`generate_suite` builds the 450-application collection of §6
(or a scaled-down version; the full size is a CLI flag away).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.process import Process, hard_process, soft_process
from repro.workloads.deadlines import (
    assign_deadlines,
    assign_period,
    hard_only_bounds,
)
from repro.workloads.exec_times import TimingSpec, draw_execution_times
from repro.workloads.random_dags import random_dag, topological_order
from repro.workloads.utility_gen import step_utility_for_range


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs of the synthetic application generator.

    Defaults match the paper's §6 setup: WCET ~ U[10, 100] ms, BCET ~
    U[0, WCET], k = 3 faults, µ = 15 ms, half the processes soft.
    """

    n_processes: int = 30
    soft_ratio: float = 0.5
    k: int = 3
    mu: int = 15
    timing: TimingSpec = field(default_factory=TimingSpec)
    structure: str = "layered"
    deadline_laxity_range: Tuple[float, float] = (1.3, 2.2)
    period_pressure_range: Tuple[float, float] = (0.85, 1.05)
    utility_value_range: Tuple[int, int] = (20, 100)

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ModelError("need at least one process")
        if not 0.0 <= self.soft_ratio <= 1.0:
            raise ModelError("soft_ratio must be in [0, 1]")
        if self.k < 0 or self.mu < 0:
            raise ModelError("k and mu must be non-negative")


def generate_application(
    spec: WorkloadSpec = WorkloadSpec(),
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Application:
    """One random application following ``spec``.

    Construction order: DAG structure → execution times → hard/soft
    split → period and hard deadlines (from worst-case bounds, so the
    result is always schedulable by dropping) → soft utility functions
    scaled to each process's plausible completion range.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    succ = random_dag(spec.n_processes, rng, structure=spec.structure)
    node_order = list(range(spec.n_processes))
    topo_nodes = topological_order(succ)
    times = draw_execution_times(node_order, rng, spec.timing)

    # Hard/soft split: sample without replacement.
    n_soft = int(round(spec.soft_ratio * spec.n_processes))
    n_soft = min(n_soft, spec.n_processes)
    soft_nodes = set(
        int(x)
        for x in rng.choice(spec.n_processes, size=n_soft, replace=False)
    )

    names = {node: f"P{node + 1}" for node in node_order}
    wcet = {names[n]: times[n][1] for n in node_order}
    bcet = {names[n]: times[n][0] for n in node_order}
    recovery_need = {names[n]: wcet[names[n]] + spec.mu for n in node_order}

    topo = [names[n] for n in topo_nodes]
    hard_names = [names[n] for n in node_order if n not in soft_nodes]

    bounds = hard_only_bounds(topo, hard_names, wcet, recovery_need, spec.k)
    total_wcet = sum(wcet.values())
    max_need = max(recovery_need.values()) if recovery_need else 0
    pressure = float(rng.uniform(*spec.period_pressure_range))
    hard_makespan = max(bounds.values()) if bounds else 1
    laxity = float(rng.uniform(*spec.deadline_laxity_range))
    provisional_deadlines = {
        name: int(np.ceil(bound * laxity)) for name, bound in bounds.items()
    }
    min_period = max(
        [hard_makespan] + list(provisional_deadlines.values()) + [1]
    )
    period = assign_period(total_wcet, max_need, spec.k, pressure, min_period)
    deadlines = assign_deadlines(bounds, laxity, period)

    # Completion ranges for utility scaling: earliest = BCET critical
    # path into the process; latest = sum of AETs (everything runs at
    # average before it) clipped to the period.
    earliest: Dict[str, int] = {}
    ready = [0] * spec.n_processes
    for node in topo_nodes:
        name = names[node]
        earliest[name] = ready[node] + bcet[name]
        for child in succ[node]:
            ready[child] = max(ready[child], earliest[name])
    total_aet = sum((bcet[n] + wcet[n]) // 2 for n in wcet)

    processes: List[Process] = []
    for node in node_order:
        name = names[node]
        if node in soft_nodes:
            latest = min(period, max(earliest[name] + 1, total_aet))
            utility = step_utility_for_range(
                earliest[name],
                latest,
                rng,
                max_value_range=spec.utility_value_range,
            )
            processes.append(
                soft_process(name, bcet[name], wcet[name], utility)
            )
        else:
            processes.append(
                hard_process(name, bcet[name], wcet[name], deadlines[name])
            )

    # Edges by source, each source's in the order they were added:
    # this order fixes every process's predecessor order.
    edges = [(names[u], names[v]) for u in node_order for v in succ[u]]
    graph = ProcessGraph(processes, edges, name=f"G{spec.n_processes}")
    app = Application(graph, period=period, k=spec.k, mu=spec.mu)
    app.validate()
    return app


def generate_suite(
    sizes: Tuple[int, ...] = (10, 15, 20, 25, 30, 35, 40, 45, 50),
    apps_per_size: int = 50,
    soft_ratio: float = 0.5,
    k: int = 3,
    mu: int = 15,
    seed: int = 2008,
) -> Dict[int, List[Application]]:
    """The §6 suite: ``apps_per_size`` applications per size.

    The paper uses 50 per size (450 total); benches default to fewer
    and expose a flag for the full run.
    """
    rng = np.random.default_rng(seed)
    suite: Dict[int, List[Application]] = {}
    for size in sizes:
        spec = WorkloadSpec(
            n_processes=size, soft_ratio=soft_ratio, k=k, mu=mu
        )
        suite[size] = [
            generate_application(spec, rng=rng) for _ in range(apps_per_size)
        ]
    return suite
