"""Exhaustive verification of the hard-deadline guarantee.

Monte-Carlo simulation (``repro.evaluation.montecarlo``) samples the
scenario space; for *small* applications we can do better and check it
exhaustively, in the spirit of model checking:

* **fault scenarios** — every multiset of at most k faults over the
  processes (:func:`repro.faults.enumerate_scenarios`); and
* **execution times** — every combination of per-process BCET/WCET
  corners.  Corner coverage is the right notion here: every completion
  bound used by the synthesis analyses is a monotone (sum/max) function
  of the individual execution times, so its extrema lie on corners of
  the [BCET, WCET] box.  Interior points can still exercise *different
  switch decisions* of the quasi-static tree — those are covered by the
  randomized property tests — but a deadline violation at an interior
  point implies one at a corner for the schedule actually executed.

The verifier replays every combination through the real online
scheduler and reports the first counterexample, making it both a test
oracle (``tests/test_verification.py``) and a debugging tool
(the counterexample is a concrete replayable scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Optional, Union

from repro.errors import ModelError
from repro.faults.injection import ExecutionScenario, scenario_with_times
from repro.faults.model import FaultScenario
from repro.faults.scenarios import count_scenarios, enumerate_scenarios
from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.online import OnlineScheduler
from repro.scheduling.fschedule import FSchedule

#: Refuse to enumerate beyond this many combinations by default.
DEFAULT_COMBINATION_LIMIT = 200_000


@dataclass(frozen=True)
class Counterexample:
    """A concrete scenario violating a guarantee."""

    scenario: ExecutionScenario
    missed: tuple
    makespan: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Counterexample(faults={self.scenario.faults}, "
            f"missed={list(self.missed)}, makespan={self.makespan})"
        )


@dataclass
class VerificationReport:
    """Outcome of one exhaustive verification run."""

    combinations_checked: int
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def corner_time_vectors(app: Application) -> Iterator[dict]:
    """All per-process BCET/WCET corner assignments."""
    names = [p.name for p in app.processes]
    corners = [(app.process(n).bcet, app.process(n).wcet) for n in names]
    for combo in product(*corners):
        yield dict(zip(names, combo))


def combination_count(app: Application) -> int:
    """Number of (corner, fault-scenario) combinations to check."""
    distinct_corners = 1
    for proc in app.processes:
        distinct_corners *= 1 if proc.bcet == proc.wcet else 2
    return distinct_corners * count_scenarios(len(app.processes), app.k)


def verify_deadline_guarantee(
    app: Application,
    plan: Union[QSTree, FSchedule],
    limit: int = DEFAULT_COMBINATION_LIMIT,
) -> VerificationReport:
    """Exhaustively check the hard-deadline and period guarantees.

    Replays every corner execution-time vector under every fault
    scenario with at most k faults.  Raises
    :class:`~repro.errors.ModelError` when the combination space
    exceeds ``limit`` (use the Monte-Carlo evaluator for large
    applications).
    """
    total = combination_count(app)
    if total > limit:
        raise ModelError(
            f"{total} combinations exceed the limit of {limit}; "
            f"use MonteCarloEvaluator for applications of this size"
        )
    scheduler = OnlineScheduler(app, plan, record_events=False)
    names = [p.name for p in app.processes]
    fault_patterns: List[FaultScenario] = list(
        enumerate_scenarios(names, app.k)
    )
    checked = 0
    for times in corner_time_vectors(app):
        for pattern in fault_patterns:
            scenario = scenario_with_times(app, times, pattern)
            result = scheduler.run(scenario)
            checked += 1
            if result.hard_misses or result.makespan > app.period:
                return VerificationReport(
                    combinations_checked=checked,
                    counterexample=Counterexample(
                        scenario=scenario,
                        missed=result.hard_misses,
                        makespan=result.makespan,
                    ),
                )
    return VerificationReport(combinations_checked=checked)


def verify_all_reachable_schedules(
    app: Application, tree: QSTree
) -> List[int]:
    """Static check: every tree node's schedule is feasible *from the
    latest switch time of any arc pointing at it*.

    Returns the ids of violating nodes (empty = all safe).  This is
    the static counterpart of the dynamic guarantee: interval
    partitioning caps every arc at the child's latest safe start, so
    no arc may admit a start time at which the child breaks.
    """
    from repro.quasistatic.intervals import rebased

    violations: List[int] = []
    for node in tree.nodes():
        for arc in node.arcs:
            child = tree.node(arc.target)
            probe = rebased(child.schedule, arc.hi)
            if not probe.is_schedulable():
                violations.append(arc.target)
    return sorted(set(violations))
