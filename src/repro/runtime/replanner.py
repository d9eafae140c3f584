"""A fully-online re-planning scheduler (overhead comparator).

The paper motivates quasi-static scheduling by the "unacceptable
overhead" of a purely online approach "which computes a new schedule
every time a process fails or completes" (§1, abstract).  This module
implements exactly that straw man so the claim can be measured: after
every process completion (and every fault), FTSS is re-run on the
remaining processes from the current instant, and the first process of
the fresh schedule is executed next.

The resulting utility is an upper-ish bound for adaptive scheduling —
every decision uses the true current time — but each decision costs a
full FTSS run.  :class:`ReplanningResult` therefore also reports the
number of scheduler invocations and the host-measured scheduling time,
which the ``ablation`` benches compare against the (constant-time)
arc lookups of the quasi-static online scheduler.  Each run is an
:func:`~repro.scheduling.ftss.ftss` call — the compiled list scheduler,
with a context compiled per call — so the measured overhead is that
of the fast FTSS, not of its reference oracle.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, Set

from repro.errors import RuntimeModelError
from repro.faults.injection import ExecutionScenario
from repro.model.application import Application
from repro.runtime.trace import ExecutionResult
from repro.scheduling.ftss import DEFAULT_CONFIG, FTSSConfig, ftss
from repro.utility.stale import stale_coefficients


@dataclass
class ReplanningResult:
    """Outcome of a fully-online cycle plus its scheduling overhead."""

    result: ExecutionResult
    scheduler_invocations: int
    scheduling_seconds: float


def run_replanning(
    app: Application,
    scenario: ExecutionScenario,
    config: FTSSConfig = DEFAULT_CONFIG,
) -> ReplanningResult:
    """Execute one cycle, re-running FTSS at every completion/fault."""
    clock = 0
    observed_faults = 0
    completed: Dict[str, int] = {}
    dropped: Set[str] = set()
    invocations = 0
    spent = 0.0

    while True:
        t0 = _time.perf_counter()
        plan = ftss(
            app,
            fault_budget=max(0, app.k - observed_faults),
            start_time=clock,
            prior_completed=frozenset(completed),
            prior_dropped=frozenset(dropped),
            config=config,
        )
        spent += _time.perf_counter() - t0
        invocations += 1
        if plan is None:
            raise RuntimeModelError(
                "online re-planning failed mid-cycle; the initial "
                "schedulability guarantee was violated"
            )
        if not plan.entries:
            # Everything remaining was dropped by the plan.
            dropped |= set(plan.dropped)
            break

        name = plan.entries[0].name
        attempts_allowed = plan.entries[0].reexecutions
        attempt = 0
        while True:
            if attempt > 0:
                clock += app.recovery_overhead(name)
            clock += scenario.duration_of(name, attempt)
            if scenario.fails(name, attempt):
                observed_faults += 1
                if app.process(name).is_hard or attempt < attempts_allowed:
                    attempt += 1
                    continue
                dropped.add(name)
                break
            completed[name] = clock
            break

    for proc in app.soft:
        if proc.name not in completed:
            dropped.add(proc.name)
    alphas = stale_coefficients(app.graph, dropped)
    utility = 0.0
    for pname, ptime in completed.items():
        proc = app.graph[pname]
        if proc.is_soft and ptime <= app.period:
            utility += alphas[pname] * proc.utility_at(ptime)
    hard_misses = tuple(
        sorted(
            p.name
            for p in app.hard
            if p.name not in completed or completed[p.name] > p.deadline
        )
    )
    result = ExecutionResult(
        completion_times=completed,
        dropped=frozenset(dropped),
        utility=utility,
        hard_misses=hard_misses,
        faults_observed=observed_faults,
        switches=(),
        makespan=clock,
        events=[],
    )
    return ReplanningResult(
        result=result,
        scheduler_invocations=invocations,
        scheduling_seconds=spent,
    )
