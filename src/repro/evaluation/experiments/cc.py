"""Experiment driver for the cruise-controller case study (paper §6).

The paper reports, for the 32-process CC application with k = 2 and
µ = 10% of each WCET: FTQS needs 39 schedules for a 14% no-fault
improvement over FTSS and an 81% improvement over FTSF, and its
utility drops by only 4% under one fault and 9% under two faults.

We reconstruct the CC graph (see :mod:`repro.workloads.cruise`) and
report the same quantities on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import UnschedulableError
from repro.evaluation.metrics import format_table
from repro.evaluation.montecarlo import normalized_to
from repro.execution import DEFAULT_ENGINE
from repro.pipeline.runner import ExperimentRunner
from repro.quasistatic.ftqs import FTQSConfig
from repro.scheduling.ftsf import ftsf
from repro.scheduling.ftss import ftss
from repro.workloads.cruise import cruise_controller


@dataclass(frozen=True)
class CCConfig:
    """Scale knobs of the cruise-controller experiment."""

    max_schedules: int = 39
    n_scenarios: int = 300
    seed: int = 2008
    execution: str = DEFAULT_ENGINE

    @classmethod
    def paper_scale(cls) -> "CCConfig":
        return cls(n_scenarios=20000)


@dataclass
class CCReport:
    """Measured quantities mirroring the paper's CC paragraph."""

    tree_nodes: int
    distinct_schedules: int
    ftqs_vs_ftss_percent: float     # no-fault improvement over FTSS
    ftqs_vs_ftsf_percent: float     # no-fault improvement over FTSF
    degradation_1_fault_percent: float
    degradation_2_faults_percent: float
    mean_utility: Dict[str, Dict[int, float]]

    def format(self) -> str:
        headers = ["approach", "0 faults", "1 fault", "2 faults"]
        body = []
        for approach in ("FTQS", "FTSS", "FTSF"):
            per_fault = self.mean_utility[approach]
            body.append(
                [approach]
                + [per_fault.get(f, float("nan")) for f in (0, 1, 2)]
            )
        table = format_table(
            headers,
            body,
            title="Cruise controller — utility normalized to FTQS "
            "(no faults), %",
        )
        return (
            f"{table}\n"
            f"tree: {self.tree_nodes} nodes / "
            f"{self.distinct_schedules} distinct schedules\n"
            f"FTQS vs FTSS (no faults): +{self.ftqs_vs_ftss_percent:.1f}%\n"
            f"FTQS vs FTSF (no faults): +{self.ftqs_vs_ftsf_percent:.1f}%\n"
            f"FTQS degradation: {self.degradation_1_fault_percent:.1f}% @1 "
            f"fault, {self.degradation_2_faults_percent:.1f}% @2 faults"
        )


class CCRunner(ExperimentRunner):
    """The cruise-controller case study as a pipeline spec: a fixed
    application instead of a workload grid, three approaches, one
    paired evaluation."""

    def __init__(self, config: CCConfig = CCConfig(), **kwargs):
        super().__init__(execution=config.execution, **kwargs)
        self.config = config

    def _run(self) -> CCReport:
        config = self.config
        app = cruise_controller()
        root = ftss(app)
        if root is None:
            raise UnschedulableError("cruise controller is not schedulable")
        baseline = ftsf(app)
        if baseline is None:
            raise UnschedulableError("FTSF failed on the cruise controller")
        tree = self.synthesize(
            app, root, FTQSConfig(max_schedules=config.max_schedules)
        )

        with self.evaluator(
            app,
            n_scenarios=config.n_scenarios,
            fault_counts=[0, 1, 2],
            seed=config.seed,
        ) as evaluator:
            results = evaluator.compare(
                {"FTQS": tree, "FTSS": root, "FTSF": baseline}
            )
        percents = normalized_to(results, "FTQS", reference_faults=0)

        ftqs0 = results["FTQS"][0].mean_utility
        ftss0 = results["FTSS"][0].mean_utility
        ftsf0 = results["FTSF"][0].mean_utility
        return CCReport(
            tree_nodes=len(tree),
            distinct_schedules=tree.different_schedules(),
            ftqs_vs_ftss_percent=100.0 * (ftqs0 - ftss0) / ftss0,
            ftqs_vs_ftsf_percent=100.0 * (ftqs0 - ftsf0) / ftsf0,
            degradation_1_fault_percent=100.0 - percents["FTQS"][1],
            degradation_2_faults_percent=100.0 - percents["FTQS"][2],
            mean_utility=percents,
        )


def run_cc(
    config: CCConfig = CCConfig(),
    *,
    stats=None,
    resources=None,
    store=None,
    checkpoint=None,
) -> CCReport:
    """Run the CC case study and return the measured report.

    A thin wrapper over :class:`CCRunner`; ``resources``/``store``/
    ``checkpoint`` are the pipeline's shared worker pools, tree cache
    and resume journal (see :mod:`repro.pipeline`).
    """
    return CCRunner(
        config,
        stats=stats,
        resources=resources,
        store=store,
        checkpoint=checkpoint,
    ).run()
