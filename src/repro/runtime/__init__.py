"""Runtime substrate: online scheduler, traces, re-planning comparator,
and the C-kernel simulation engine."""

from repro.runtime.online import OnlineScheduler, simulate
from repro.runtime.replanner import ReplanningResult, run_replanning
from repro.runtime.trace import EventKind, ExecutionResult, TraceEvent
from repro.runtime.engine import (
    BatchResult,
    BatchSimulator,
    ParallelEvaluator,
    ScenarioBatch,
)

__all__ = [
    "BatchResult",
    "BatchSimulator",
    "EventKind",
    "ExecutionResult",
    "OnlineScheduler",
    "ParallelEvaluator",
    "ReplanningResult",
    "ScenarioBatch",
    "TraceEvent",
    "run_replanning",
    "simulate",
]
