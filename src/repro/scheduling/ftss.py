"""FTSS — static scheduling for fault tolerance and utility
maximization (paper §5.2, Fig. 8).

FTSS is a list-scheduling heuristic over the set of *ready* processes
(all predecessors scheduled or dropped).  Each iteration:

1. evaluates every ready soft process with the dropping heuristic and
   drops the ones whose removal increases the expected utility
   (``DetermineDropping``);
2. filters the ready list down to the set A of processes that lead to
   a schedulable solution even under k faults (``GetSchedulable``);
3. if A is empty, force-drops the cheapest soft ready process and
   retries; if no soft process is left to sacrifice, the application
   is unschedulable;
4. picks the best process — the soft one with the highest MU priority,
   or, if no soft candidate exists, the hard one with the earliest
   deadline (``GetBestProcess``);
5. appends it with its recovery-slack allotment: hard processes always
   get k re-executions; soft processes get as many re-executions as
   remain schedulable *and* beneficial for the expected utility.

The resulting f-schedule guarantees the hard deadlines for worst-case
execution times while its utility is maximized for average execution
times (the decisions in steps 1, 4 and 5 all use AETs).

:func:`ftss`, which every caller uses, runs ``fast_paths=True``
configurations (the default) in the C core: :func:`ftss_compiled`
makes one ``rk_ftss`` call per run over the lowered tables of the
application's one
:class:`~repro.scheduling.compiled.SchedulingContext`
(see :mod:`repro.runtime.engine.kernel.design`), and the FTQS engine
runs its tails through it too, keeping them raw (pids and caps) until
one is admitted to the tree.  :func:`ftss_reference` is the loop
below, followed literally: the oracle, which also serves
``fast_paths=False`` and runs, with a counted reason, wherever the C
path cannot (no usable core, a negative start time, a utility without
a kernel lowering, a hard process among the prior drops).  Both return
identical f-schedules (``tests/test_ftss_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.model.application import Application
from repro.scheduling.compiled import RawTail, SchedulingContext
from repro.scheduling.dropping import (
    determine_dropping,
    determine_dropping_fast,
    forced_dropping_choice,
    forced_dropping_choice_fast,
    greedy_soft_order,
    hypothetical_utility,
)
from repro.scheduling.feasibility import FeasibilityOracle
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
from repro.scheduling.priority import (
    best_soft,
    earliest_deadline_hard,
    soft_priorities,
)
from repro.scheduling.schedulability import candidate_schedule, get_schedulable


@dataclass(frozen=True)
class FTSSConfig:
    """Tunables and ablation switches for FTSS.

    Attributes
    ----------
    drop_heuristic:
        Run ``DetermineDropping`` each iteration (paper default).  When
        off, soft processes are only dropped when forced — the
        ``ablation-dropping`` configuration.
    soft_reexecution:
        Allot re-executions to soft processes when schedulable and
        beneficial (paper default).  When off, soft processes are
        dropped on their first fault.
    slack_sharing:
        Share recovery slack between processes (paper default); the
        ``ablation-slack-sharing`` switch reserves private slack.
    optimize_for:
        ``"aet"`` (paper default) evaluates utility decisions at
        average-case times; ``"wcet"`` is the ``ablation-avg-opt``
        configuration that optimizes the pessimistic case instead.
    successor_weight:
        Lookahead weight of the MU priority.
    fast_paths:
        Use the incremental feasibility oracle and the removal-scored
        dropping evaluation (exact re-implementations of the slow
        probes up to greedy-order second-order effects; the test suite
        cross-checks them), which :func:`ftss` runs in the C core.
        Off = :func:`ftss_reference` with the slow probes.
    """

    drop_heuristic: bool = True
    soft_reexecution: bool = True
    slack_sharing: bool = True
    optimize_for: str = "aet"
    successor_weight: float = 0.5
    fast_paths: bool = True

    def __post_init__(self) -> None:
        if self.optimize_for not in ("aet", "wcet"):
            raise ValueError(
                f"optimize_for must be 'aet' or 'wcet', got "
                f"{self.optimize_for!r}"
            )

    def decision_time(self, app: Application, name: str) -> int:
        """Execution-time estimate used for utility decisions."""
        proc = app.process(name)
        return proc.aet if self.optimize_for == "aet" else proc.wcet


DEFAULT_CONFIG = FTSSConfig()


class _FTSSState:
    """Mutable bookkeeping for one FTSS run."""

    def __init__(
        self,
        app: Application,
        fault_budget: int,
        start_time: int,
        prior_completed: Iterable[str],
        prior_dropped: Iterable[str],
        config: FTSSConfig,
    ):
        self.app = app
        self.config = config
        self.fault_budget = fault_budget
        self.start_time = start_time
        self.prior_completed: Set[str] = set(prior_completed)
        self.prior_dropped: Set[str] = set(prior_dropped)
        self.entries: List[ScheduledEntry] = []
        self.dropped: Set[str] = set()
        self.clock = start_time  # decision-time completion of the prefix
        self.ready: Set[str] = set()
        self._settled: Set[str] = set(self.prior_completed) | set(
            self.prior_dropped
        )
        for name in app.graph.process_names:
            if name in self._settled:
                continue
            self._maybe_ready(name)
        self.oracle = FeasibilityOracle(
            app,
            fault_budget,
            start_time=start_time,
            prior_completed=tuple(self.prior_completed),
            slack_sharing=config.slack_sharing,
        )

    # -- ready-list maintenance ---------------------------------------
    def _maybe_ready(self, name: str) -> None:
        preds = self.app.graph.predecessors(name)
        if all(p in self._settled for p in preds):
            self.ready.add(name)

    def settle(self, name: str) -> None:
        """Mark ``name`` scheduled or dropped; promote ready successors."""
        self._settled.add(name)
        self.ready.discard(name)
        for succ in self.app.graph.successors(name):
            if succ not in self._settled:
                self._maybe_ready(succ)

    # -- views ----------------------------------------------------------
    @property
    def all_dropped(self) -> Set[str]:
        return self.dropped | self.prior_dropped

    def unscheduled_soft(self) -> List[str]:
        scheduled = {e.name for e in self.entries}
        return [
            p.name
            for p in self.app.soft
            if p.name not in scheduled
            and p.name not in self.all_dropped
            and p.name not in self.prior_completed
        ]

    def drop(self, name: str) -> None:
        self.dropped.add(name)
        self.settle(name)

    def schedule(self, name: str, reexecutions: int) -> None:
        self.entries.append(ScheduledEntry(name, reexecutions))
        self.clock += self.config.decision_time(self.app, name)
        self.oracle.on_schedule(name, reexecutions)
        self.settle(name)


def ftss(
    app: Application,
    fault_budget: Optional[int] = None,
    start_time: int = 0,
    prior_completed: Iterable[str] = (),
    prior_dropped: Iterable[str] = (),
    config: FTSSConfig = DEFAULT_CONFIG,
) -> Optional[FSchedule]:
    """Run FTSS; returns the f-schedule or ``None`` when unschedulable.

    The default arguments produce the root schedule S_root of the
    paper's scheduling strategy (Fig. 6); ``start_time``,
    ``prior_completed``, ``prior_dropped`` and ``fault_budget``
    describe an intermediate execution state instead (the online
    re-planner's).  ``fast_paths=True`` configurations run
    :func:`ftss_compiled` on the application's one context
    (:meth:`SchedulingContext.of`, built and lowered on first use);
    ``fast_paths=False`` ones run :func:`ftss_reference`.  Both return
    the same f-schedule (``tests/test_ftss_differential.py``).
    """
    if not config.fast_paths:
        return ftss_reference(
            app, fault_budget, start_time, prior_completed, prior_dropped, config
        )
    budget = app.k if fault_budget is None else int(fault_budget)
    ctx = SchedulingContext.of(app)
    completed, dropped = ctx.prior_masks(prior_completed, prior_dropped)
    raw = ftss_compiled(ctx, config, budget, start_time, completed, dropped)
    if raw is None:
        return None
    # Built, and so validated, even when the final check rejects it:
    # the oracle's validation raises on malformed prior sets first.
    schedule = ctx.schedule(
        raw, budget, start_time, completed, dropped, config.slack_sharing
    )
    return None if raw.latest is None else schedule


def ftss_compiled(
    ctx: SchedulingContext,
    config: FTSSConfig,
    fault_budget: int,
    start_time: int,
    prior_completed: int,
    prior_dropped: int,
) -> Optional[RawTail]:
    """One ``fast_paths`` FTSS run on ``ctx``'s tables, the prior sets
    as masks, raw: the scheduled pids and caps and the latest start at
    which the schedule stays schedulable (its t_ic; ``None`` when the
    final check rejects it), or ``None`` when the run finds no
    schedule.  :meth:`SchedulingContext.schedule` builds the
    f-schedule.  One ``rk_ftss`` call of the C core gives it; where the
    C path cannot run (the reason is counted in ``kernel_stats()``),
    :func:`ftss_reference` and :meth:`SchedulingContext.latest_start`
    do."""
    core = ctx.core
    if core.ftss_fallback(start_time, prior_dropped):
        schedule = ftss_reference(
            ctx.app,
            fault_budget,
            start_time,
            ctx.names_of(prior_completed),
            ctx.names_of(prior_dropped),
            config,
        )
        return None if schedule is None else ctx.raw_tail(schedule)
    return core.ftss(
        config, fault_budget, start_time, prior_completed, prior_dropped
    )


def ftss_reference(
    app: Application,
    fault_budget: Optional[int] = None,
    start_time: int = 0,
    prior_completed: Iterable[str] = (),
    prior_dropped: Iterable[str] = (),
    config: FTSSConfig = DEFAULT_CONFIG,
) -> Optional[FSchedule]:
    """The behavioral oracle of :func:`ftss`: Fig. 8 over names and
    sets, with the probes of :mod:`repro.scheduling.feasibility` (or,
    with ``fast_paths=False``, :mod:`repro.scheduling.schedulability`)."""
    budget = app.k if fault_budget is None else int(fault_budget)
    state = _FTSSState(
        app, budget, start_time, prior_completed, prior_dropped, config
    )

    while state.ready:
        ready_sorted = sorted(state.ready)
        # Line 3: DetermineDropping over the ready soft processes.
        if config.drop_heuristic:
            dropper = (
                determine_dropping_fast
                if config.fast_paths
                else determine_dropping
            )
            drops = dropper(
                app,
                ready_sorted,
                state.unscheduled_soft(),
                state.clock,
                state.all_dropped,
            )
            for name in drops:
                state.drop(name)
            if not state.ready:
                break
            ready_sorted = sorted(state.ready)

        # Line 4: GetSchedulable.
        schedulable = _get_schedulable(state, ready_sorted)

        # Lines 5-9: ForcedDropping until something is schedulable.
        while not schedulable:
            ready_soft = [
                n for n in sorted(state.ready) if app.process(n).is_soft
            ]
            forced = (
                forced_dropping_choice_fast
                if config.fast_paths
                else forced_dropping_choice
            )
            victim = forced(
                app,
                ready_soft,
                state.unscheduled_soft(),
                state.clock,
                state.all_dropped,
            )
            if victim is None:
                break
            state.drop(victim)
            if not state.ready:
                break
            schedulable = _get_schedulable(state, sorted(state.ready))
        if not state.ready:
            break
        if not schedulable:
            return None  # Line 10: unschedulable.

        # Lines 11-12: priorities and GetBestProcess.
        best = _get_best_process(state, schedulable)

        # Lines 13-14: schedule and assign the recovery slack.
        proc = app.process(best)
        if proc.is_hard:
            reexecutions = budget
        else:
            reexecutions = _soft_reexecution_allotment(state, best)
        state.schedule(best, reexecutions)

    # The schedule's own dropping decisions are implied by the entry
    # list (the ``dropped`` property derives them); only drops decided
    # *before* this schedule belong in prior_dropped.
    schedule = FSchedule(
        app,
        state.entries,
        start_time=start_time,
        fault_budget=budget,
        prior_completed=state.prior_completed,
        prior_dropped=state.prior_dropped,
        slack_sharing=config.slack_sharing,
    )
    if not schedule.is_schedulable():
        return None
    return schedule


def _get_schedulable(state: _FTSSState, ready: Sequence[str]) -> List[str]:
    if state.config.fast_paths:
        return state.oracle.schedulable_subset(ready)
    return get_schedulable(
        state.app,
        state.entries,
        ready,
        state.fault_budget,
        start_time=state.start_time,
        prior_completed=state.prior_completed,
        prior_dropped=state.all_dropped,
        slack_sharing=state.config.slack_sharing,
    )


def _get_best_process(state: _FTSSState, candidates: Sequence[str]) -> str:
    """GetBestProcess: highest-MU soft candidate, else EDF hard."""
    app = state.app
    soft_candidates = [n for n in candidates if app.process(n).is_soft]
    if soft_candidates:
        priorities = soft_priorities(
            app,
            soft_candidates,
            state.clock,
            state.all_dropped,
            successor_weight=state.config.successor_weight,
        )
        return best_soft(priorities)
    hard_candidates = [n for n in candidates if app.process(n).is_hard]
    return earliest_deadline_hard(app, hard_candidates)


def _soft_reexecution_allotment(state: _FTSSState, name: str) -> int:
    """How many re-executions the soft process ``name`` receives.

    Each additional re-execution must (a) keep the S_iH test schedule
    feasible (the worst-case analysis then accounts for the slack it
    may consume) and (b) be beneficial: conditioned on the fault
    actually occurring, re-executing must beat dropping in expected
    utility (paper §5.2: re-executions are "evaluated with the dropping
    heuristic").
    """
    app = state.app
    config = state.config
    if not config.soft_reexecution or state.fault_budget == 0:
        return 0
    granted = 0
    for r in range(1, state.fault_budget + 1):
        if config.fast_paths:
            feasible = state.oracle.check(name, reexecutions=r)
        else:  # pragma: no branch - exercised via fast_paths=False tests
            test = candidate_schedule(
                app,
                state.entries,
                name,
                state.fault_budget,
                start_time=state.start_time,
                prior_completed=state.prior_completed,
                prior_dropped=state.all_dropped,
                candidate_reexecutions=r,
                slack_sharing=config.slack_sharing,
            )
            feasible = test.is_schedulable()
        if not feasible:
            break
        if _reexecution_squeezes_soft(state, name, r):
            break
        if not _reexecution_beneficial(state, name, r):
            break
        granted = r
    return granted


def _reexecution_squeezes_soft(state: _FTSSState, name: str, r: int) -> bool:
    """Would granting the r-th re-execution push other soft processes
    out of schedulability?

    The reserved recovery slack of a soft re-execution enlarges the
    worst-case completion bound of everything scheduled later; a soft
    process that fit before may no longer pass its S_iH probe.  Losing
    a whole (average-case) soft process to protect one (fault-case)
    re-execution is a bad trade — the Fig. 8 application exhibits
    exactly this, where re-executing P2 would force dropping P3 and
    P4.  The probe compares the schedulable subset of the remaining
    soft pool with and without the grant.
    """
    remaining_soft = [n for n in state.unscheduled_soft() if n != name]
    if not remaining_soft:
        return False
    without = state.oracle.extended(name, 0)
    with_grant = state.oracle.extended(name, r)
    for other in remaining_soft:
        if without.check(other) and not with_grant.check(other):
            return True
    return False


def _reexecution_beneficial(state: _FTSSState, name: str, r: int) -> bool:
    """Conditional utility test for the r-th re-execution of ``name``.

    Scenario: the first r attempts of ``name`` fail.  Re-executing
    completes the process at
    ``clock + (r+1)·t + r·µ`` (t = decision-time estimate) and delays
    every later soft process by the recovery cost; dropping loses the
    process's utility (and degrades its consumers) but frees the time.
    """
    app = state.app
    t = state.config.decision_time(app, name)
    mu = app.recovery_overhead(name)
    rest = [n for n in state.unscheduled_soft() if n != name]

    completion = state.clock + (r + 1) * t + r * mu
    keep_dropped = set(state.all_dropped)
    keep_order = greedy_soft_order(app, rest, completion, keep_dropped)
    keep_utility = hypothetical_utility(
        app, [name] + keep_order, state.clock + r * (t + mu), keep_dropped
    )

    giveup_time = state.clock + r * t + (r - 1) * mu if r > 0 else state.clock
    drop_dropped = set(state.all_dropped) | {name}
    drop_order = greedy_soft_order(app, rest, giveup_time, drop_dropped)
    drop_utility = hypothetical_utility(
        app, drop_order, giveup_time, drop_dropped
    )
    return keep_utility > drop_utility
