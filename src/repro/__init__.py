"""repro - fault-tolerant quasi-static scheduling for mixed hard/soft
real-time embedded systems.

A from-scratch reproduction of Izosimov, Pop, Eles & Peng,
"Scheduling of Fault-Tolerant Embedded Systems with Soft and Hard
Timing Constraints", DATE 2008 (DOI 10.1109/DATE.2008.4484791).

Quick start::

    from repro import (
        Application, ProcessGraph, hard_process, soft_process,
        StepUtility, schedule_application,
    )

    p1 = hard_process("P1", bcet=30, wcet=70, deadline=180)
    p2 = soft_process("P2", 30, 70, StepUtility(40, [(100, 20), (160, 0)]))
    p3 = soft_process("P3", 40, 80, StepUtility(40, [(110, 30), (160, 10)]))
    graph = ProcessGraph([p1, p2, p3], [("P1", "P2"), ("P1", "P3")])
    app = Application(graph, period=300, k=1, mu=10)
    tree = schedule_application(app, max_schedules=8)

See README.md for the architecture overview.
"""

from repro.errors import (
    GraphError,
    ModelError,
    ReproError,
    SchedulingError,
    TimingError,
    UnschedulableError,
    UtilityError,
)
from repro.faults import (
    ExecutionScenario,
    FaultScenario,
    ScenarioSampler,
    average_case_scenario,
    best_case_scenario,
    worst_case_scenario,
)
from repro.model import (
    Application,
    Process,
    ProcessGraph,
    ProcessKind,
    application_from_graphs,
    hard_process,
    soft_process,
)
from repro.pipeline import ResourceManager, TreeStore
from repro.quasistatic import (
    QSTree,
    SchedulingStrategyResult,
    ftqs,
    schedule_application,
)
from repro.runtime import OnlineScheduler, simulate
from repro.scheduling import (
    FSchedule,
    FTSSConfig,
    ScheduledEntry,
    ftsf,
    ftss,
    nft_schedule,
)
from repro.utility import (
    ConstantUtility,
    LinearUtility,
    StepUtility,
    TabulatedUtility,
    UtilityFunction,
    stale_coefficients,
)

__version__ = "1.0.0"

__all__ = [
    "Application",
    "ConstantUtility",
    "ExecutionScenario",
    "FSchedule",
    "FTSSConfig",
    "FaultScenario",
    "GraphError",
    "LinearUtility",
    "ModelError",
    "OnlineScheduler",
    "Process",
    "ProcessGraph",
    "ProcessKind",
    "QSTree",
    "ReproError",
    "ResourceManager",
    "ScenarioSampler",
    "ScheduledEntry",
    "SchedulingError",
    "SchedulingStrategyResult",
    "StepUtility",
    "TabulatedUtility",
    "TimingError",
    "TreeStore",
    "UnschedulableError",
    "UtilityError",
    "UtilityFunction",
    "application_from_graphs",
    "average_case_scenario",
    "best_case_scenario",
    "ftqs",
    "ftsf",
    "ftss",
    "hard_process",
    "nft_schedule",
    "schedule_application",
    "simulate",
    "soft_process",
    "stale_coefficients",
    "worst_case_scenario",
]
