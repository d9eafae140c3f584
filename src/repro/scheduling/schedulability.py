"""The literal S_iH schedulability test of FTSS (paper §5.2 line 4).

A ready process P_i "leads to a schedulable solution" when the
schedule S_iH — the already-scheduled prefix, then P_i, then all
remaining *hard* processes (every other soft process dropped) — meets
all hard deadlines in the worst-case fault scenario.  S_iH is the
shortest valid schedule containing P_i, so if it misses a deadline no
completion of the prefix + P_i can be saved.

The remaining hard processes are appended in *modified-deadline* EDF
order (Blazewicz/Lawler): every hard process's deadline is tightened
to ``min(d_i, min over hard successors j of (d'_j − WCET_j))``, after
which plain sorting by the modified deadline both respects precedence
(the modified deadline of a predecessor is strictly smaller than its
successor's) and is optimal for single-resource, common-release
deadline scheduling.  Because the order is a *static sort*, any subset
of hard processes keeps a consistent relative order — the property the
incremental feasibility oracle (:mod:`repro.scheduling.feasibility`),
which FTSS probes with, relies on to avoid recomputing orders per
probe.  :func:`get_schedulable` builds S_iH as an f-schedule per probe;
``tests/test_feasibility.py`` holds the oracle to it.

Only direct hard-to-hard precedence edges constrain the order: a path
through a soft process imposes nothing once that soft process is
dropped (its consumer falls back to a stale value, paper §2.1), and
S_iH drops every other soft process by construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.model.application import Application
from repro.scheduling.fschedule import FSchedule, ScheduledEntry


def modified_deadlines(app: Application) -> Dict[str, int]:
    """Precedence-consistent (Blazewicz) deadlines of the hard set.

    ``d'_i = min(d_i, min_{j in hard direct successors} d'_j - WCET_j)``,
    computed in reverse topological order.  Guarantees
    ``d'_pred < d'_succ`` along every hard-hard edge, so sorting by the
    modified deadline yields a precedence-valid order.
    """
    graph = app.graph
    hard = {p.name for p in app.hard}
    result: Dict[str, int] = {}
    for name in reversed(graph.topological_order()):
        if name not in hard:
            continue
        deadline = graph[name].deadline
        for succ in graph.successors(name):
            if succ in hard:
                deadline = min(deadline, result[succ] - graph[succ].wcet)
        result[name] = deadline
    return result


def edf_hard_order(
    app: Application,
    hard_names: Iterable[str],
    already_done: Iterable[str] = (),
) -> List[str]:
    """Modified-deadline EDF order of the given hard processes.

    ``already_done`` is accepted for API symmetry (the sort is global,
    so completed processes simply do not appear in ``hard_names``).
    """
    deadlines = modified_deadlines(app)
    return sorted(hard_names, key=lambda n: (deadlines[n], n))


def candidate_schedule(
    app: Application,
    prefix: Sequence[ScheduledEntry],
    candidate: Optional[str],
    fault_budget: int,
    start_time: int = 0,
    prior_completed: Iterable[str] = (),
    prior_dropped: Iterable[str] = (),
    candidate_reexecutions: Optional[int] = None,
    slack_sharing: bool = True,
) -> FSchedule:
    """Build the S_iH test schedule: prefix + candidate + hard tail.

    ``candidate`` may be ``None`` to test the prefix alone (used when
    checking whether the already-made decisions are still feasible).
    Hard candidates get the full ``fault_budget`` re-executions; soft
    candidates get ``candidate_reexecutions`` (default 0) — the probe
    of FTSS's slack-assignment step, which
    :meth:`~repro.scheduling.feasibility.FeasibilityOracle.check`
    answers incrementally.
    """
    entries: List[ScheduledEntry] = list(prefix)
    done = set(prior_completed) | {e.name for e in prefix}
    if candidate is not None:
        proc = app.process(candidate)
        if proc.is_hard:
            rex = fault_budget
        else:
            rex = candidate_reexecutions or 0
        entries.append(ScheduledEntry(candidate, rex))
        done.add(candidate)
    remaining_hard = [
        p.name for p in app.hard if p.name not in done
    ]
    for name in edf_hard_order(app, remaining_hard, done):
        entries.append(ScheduledEntry(name, fault_budget))
    return FSchedule(
        app,
        entries,
        start_time=start_time,
        fault_budget=fault_budget,
        prior_completed=prior_completed,
        prior_dropped=prior_dropped,
        slack_sharing=slack_sharing,
    )


def leads_to_schedulable(
    app: Application,
    prefix: Sequence[ScheduledEntry],
    candidate: str,
    fault_budget: int,
    start_time: int = 0,
    prior_completed: Iterable[str] = (),
    prior_dropped: Iterable[str] = (),
    slack_sharing: bool = True,
) -> bool:
    """FTSS ``GetSchedulable`` membership test for one candidate."""
    schedule = candidate_schedule(
        app,
        prefix,
        candidate,
        fault_budget,
        start_time=start_time,
        prior_completed=prior_completed,
        prior_dropped=prior_dropped,
        slack_sharing=slack_sharing,
    )
    return schedule.is_schedulable()


def get_schedulable(
    app: Application,
    prefix: Sequence[ScheduledEntry],
    ready: Sequence[str],
    fault_budget: int,
    start_time: int = 0,
    prior_completed: Iterable[str] = (),
    prior_dropped: Iterable[str] = (),
    slack_sharing: bool = True,
) -> List[str]:
    """FTSS line 4: the subset A of ready processes that lead to a
    schedulable solution."""
    return [
        name
        for name in ready
        if leads_to_schedulable(
            app,
            prefix,
            name,
            fault_budget,
            start_time=start_time,
            prior_completed=prior_completed,
            prior_dropped=prior_dropped,
            slack_sharing=slack_sharing,
        )
    ]
