"""The compiled FTSS list scheduler, on integer tables (paper §5.2).

:func:`repro.scheduling.ftss.ftss` runs every ``fast_paths=True``
configuration here, and the FTQS engine
(:mod:`repro.quasistatic.synthesis`) schedules its tails on the same
tables.  A run is an exact clone of
:func:`~repro.scheduling.ftss.ftss_reference`, the oracle:
``tests/test_ftss_differential.py`` compares every field of the
result, and ``tests/test_synthesis_differential.py`` compares whole
trees.

* :class:`SchedulingContext` compiles one application.  Processes are
  numbered in sorted-name order, so every ``sorted(...)`` and every
  smallest-name tie-break of the oracle is pid order.  Per-process
  tables are pid-indexed lists, sets are int bitmasks, and the pure
  evaluations the FTSS heuristics repeat are memoized under int keys:
  stale coefficients per dropped mask, greedy soft orders per ``(pool,
  clock, dropped)`` and hypothetical utilities per ``(order, clock,
  dropped)``.  None of the memos depends on the FTSS config (greedy
  orders use AETs and the constant ``SUCCESSOR_WEIGHT``), so one
  context serves runs of any config.
* :class:`FastOracle` answers the S_iH probes of ``GetSchedulable``
  over the context's tables (see its docstring for the collapsed
  hard-tail walk).
* :class:`TailRun` is one FTSS run: a start state in, an
  :class:`~repro.scheduling.fschedule.FSchedule` (or ``None``) out.

Names are converted only at the boundary: prior sets in
(:meth:`SchedulingContext.prior_masks`), the f-schedule out.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ModelError, SchedulingError
from repro.scheduling.feasibility import TopNeeds, latest_start
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
from repro.scheduling.priority import SUCCESSOR_WEIGHT
from repro.scheduling.schedulability import edf_hard_order
from repro.utility.functions import utility_steps


def pids(mask: int) -> Iterator[int]:
    """The process ids in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _demand_with_max(
    items: List[Tuple[int, int]], top_cost: int, faults: int
) -> int:
    """:func:`~repro.scheduling.fschedule.shared_recovery_demand` of
    ``items`` (``(cost, cap)`` sorted by cost, descending) plus one
    ``(top_cost, faults)`` entry.

    That entry's cap covers every fault the items costlier than it
    leave, so the greedy stops there; equal-cost takes commute, so
    where it sits among equal costs does not matter.
    """
    remaining = faults
    total = 0
    for cost, cap in items:
        if cost <= top_cost or remaining <= 0:
            break
        take = cap if cap < remaining else remaining
        total += take * cost
        remaining -= take
    if remaining > 0:
        total += remaining * top_cost
    return total


class SchedulingContext:
    """One application compiled to pid tables, plus the evaluation memos.

    Utilities are read from :func:`~repro.utility.functions.utility_steps`
    tables (``values[bisect_left(times, t)]``); utilities that are not
    piecewise constant are called, and so is every utility evaluated
    from a negative clock, where the call raises like the oracle's.
    """

    def __init__(self, app):
        graph = app.graph
        names = tuple(sorted(graph.process_names))
        pid = {name: i for i, name in enumerate(names)}
        procs = [graph[name] for name in names]
        self.app = app
        self.names = names
        self.pid = pid
        self.period = app.period
        self.wcet = [p.wcet for p in procs]
        self.bcet = [p.bcet for p in procs]
        self.aet = [p.aet for p in procs]
        self.deadline = [p.deadline for p in procs]
        self.need = [app.recovery_need(name) for name in names]
        self.mu = [app.recovery_overhead(name) for name in names]
        self.is_hard = [p.is_hard for p in procs]
        self.hard_mask = self.mask(p.name for p in procs if p.is_hard)
        self.soft_mask = ((1 << len(names)) - 1) & ~self.hard_mask
        self.preds = [self.mask(graph.predecessors(name)) for name in names]
        self.pred_list = [
            tuple(pid[q] for q in graph.predecessors(name)) for name in names
        ]
        self.succs = [
            tuple(pid[s] for s in graph.successors(name)) for name in names
        ]
        self.topo = tuple(pid[name] for name in graph.topological_order())
        # Soft successors only, in graph order (the order the MU
        # lookahead sums in): hard successors never enter the sum.
        self.soft_succ = [
            tuple((s, self.aet[s], 1 << s) for s in out if not self.is_hard[s])
            for out in self.succs
        ]
        self.divisor = [max(aet, 1) for aet in self.aet]
        self.utilities = [p.utility for p in procs]
        steps = [
            None if p.is_hard else utility_steps(p.utility) for p in procs
        ]
        self.step_times = [s[0] if s is not None else None for s in steps]
        self.step_values = [s[1] if s is not None else None for s in steps]
        self._no_steps = [None] * len(names)
        # The modified-deadline EDF order of every hard process: a
        # static sort, so the remaining-hard order of any prefix is
        # this tuple filtered (see schedulability.py).
        self.edf_hard = tuple(
            pid[name] for name in edf_hard_order(app, [p.name for p in app.hard])
        )
        self._alphas: Dict[int, List[float]] = {}
        self._greedy: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
        self._hyp: Dict[Tuple[Tuple[int, ...], int, int], float] = {}

    # ------------------------------------------------------------------
    # The name boundary
    # ------------------------------------------------------------------
    def mask(self, names: Iterable[str]) -> int:
        pid = self.pid
        mask = 0
        for name in names:
            mask |= 1 << pid[name]
        return mask

    def names_of(self, mask: int) -> List[str]:
        names = self.names
        return [names[p] for p in pids(mask)]

    def prior_masks(
        self, completed: Iterable[str], dropped: Iterable[str]
    ) -> Tuple[int, int]:
        """The prior sets of an FTSS call as masks.

        Unknown names are rejected with the oracle's errors: a dropped
        one with its stale-coefficient check's
        :class:`~repro.errors.ModelError`, a completed one with the
        f-schedule validation's :class:`~repro.errors.SchedulingError`.
        """
        completed, dropped = frozenset(completed), frozenset(dropped)
        for name in sorted(dropped - set(self.pid)):
            raise ModelError(f"dropped process {name!r} not in graph")
        unknown = sorted(completed - set(self.pid))
        if unknown:
            raise SchedulingError(f"unknown process(es) {unknown} in prior_completed")
        return self.mask(completed), self.mask(dropped)

    # ------------------------------------------------------------------
    # Memoized pure evaluations
    # ------------------------------------------------------------------
    def alphas(self, dropped: int) -> List[float]:
        """Stale coefficients per dropped mask: an exact clone of
        :func:`repro.utility.stale.stale_coefficients`, same sums in
        the same order."""
        hit = self._alphas.get(dropped)
        if hit is not None:
            return hit
        if dropped & self.hard_mask:
            name = self.names_of(dropped & self.hard_mask)[0]
            raise ModelError(f"hard process {name!r} cannot be dropped")
        alphas = [0.0] * len(self.names)
        pred_list = self.pred_list
        for p in self.topo:
            if dropped >> p & 1:
                continue
            preds = pred_list[p]
            if not preds:
                alphas[p] = 1.0
                continue
            alphas[p] = (1.0 + sum(alphas[q] for q in preds)) / (
                1.0 + len(preds)
            )
        self._alphas[dropped] = alphas
        return alphas

    def best_soft(
        self,
        candidates: int,
        clock: int,
        dropped: int,
        alphas: List[float],
        weight: float,
    ) -> int:
        """The highest MU priority in the ``candidates`` mask, the
        smallest pid on ties: an exact clone of
        :func:`~repro.scheduling.priority.soft_priorities` followed by
        :func:`~repro.scheduling.priority.best_soft`."""
        period = self.period
        aet = self.aet
        divisor = self.divisor
        soft_succ = self.soft_succ
        values = self.step_values
        utility_at = self.utilities
        times = self.step_times if clock >= 0 else self._no_steps
        best = None
        pick = -1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            p = low.bit_length() - 1
            completion = clock + aet[p]
            if completion > period:
                own = 0.0
            else:
                at = times[p]
                own = alphas[p] * (
                    utility_at[p](completion)
                    if at is None
                    else values[p][bisect_left(at, completion)]
                )
            lookahead = 0.0
            for s, s_aet, s_bit in soft_succ[p]:
                if dropped & s_bit:
                    continue
                done = completion + s_aet
                if done > period:
                    continue
                at = times[s]
                lookahead += alphas[s] * (
                    utility_at[s](done)
                    if at is None
                    else values[s][bisect_left(at, done)]
                )
            value = (own + weight * lookahead) / divisor[p]
            if best is None or value > best:
                best = value
                pick = p
        return pick

    def greedy_order(self, pool: int, now: int, dropped: int) -> Tuple[int, ...]:
        """Memoized clone of
        :func:`repro.scheduling.dropping.greedy_soft_order`: the ready
        set is kept as a mask and extended by the pick's successors."""
        key = (pool, now, dropped)
        hit = self._greedy.get(key)
        if hit is not None:
            return hit
        alphas = self.alphas(dropped)
        preds = self.preds
        succs = self.succs
        aet = self.aet
        remaining = pool
        ready = 0
        for p in pids(pool):
            if not preds[p] & pool:
                ready |= 1 << p
        clock = now
        order = []
        while remaining:
            pick = self.best_soft(
                ready, clock, dropped, alphas, SUCCESSOR_WEIGHT
            )
            order.append(pick)
            remaining ^= 1 << pick
            ready ^= 1 << pick
            for s in succs[pick]:
                if remaining >> s & 1 and not preds[s] & remaining:
                    ready |= 1 << s
            clock += aet[pick]
        result = tuple(order)
        self._greedy[key] = result
        return result

    def hyp_utility(self, order: Tuple[int, ...], now: int, dropped: int) -> float:
        """Memoized clone of
        :func:`repro.scheduling.dropping.hypothetical_utility`."""
        key = (order, now, dropped)
        hit = self._hyp.get(key)
        if hit is not None:
            return hit
        executed = 0
        for p in order:
            executed |= 1 << p
        alphas = self.alphas(dropped | (self.soft_mask & ~executed))
        period = self.period
        aet = self.aet
        values = self.step_values
        utility_at = self.utilities
        times = self.step_times if now >= 0 else self._no_steps
        clock = now
        total = 0.0
        for p in order:
            clock += aet[p]
            if clock > period:
                continue
            at = times[p]
            total += alphas[p] * (
                utility_at[p](clock)
                if at is None
                else values[p][bisect_left(at, clock)]
            )
        self._hyp[key] = total
        return total

    def latest_start(self, schedule: FSchedule) -> Optional[int]:
        """The latest start at which ``schedule`` stays schedulable
        (:func:`~repro.scheduling.feasibility.latest_start` over the
        tables), or ``None`` when a hard process is neither in it nor
        completed before it."""
        pid, wcet, need, deadline = self.pid, self.wcet, self.need, self.deadline
        picks = [(pid[e.name], e.reexecutions) for e in schedule.entries]
        covered = self.mask(schedule.prior_completed)
        for p, _ in picks:
            covered |= 1 << p
        if self.hard_mask & ~covered:
            return None
        return latest_start(
            ((wcet[p], need[p], cap, deadline[p]) for p, cap in picks),
            schedule.fault_budget,
            schedule.slack_sharing,
            self.period,
        )


class FastOracle:
    """Drop-in for :class:`~repro.scheduling.feasibility.FeasibilityOracle`
    over a :class:`SchedulingContext`, with process ids for names.

    Exactness argument for the collapsed hard-tail walk: the reference
    probe appends each remaining hard process with a full-budget
    re-execution cap to the demand top-list and re-evaluates the shared
    demand.  A cap ≥ budget entry absorbs every fault not claimed by a
    strictly more expensive entry, so of all hard entries appended so
    far only the one with the maximal recovery cost can contribute —
    the demand equals ``shared_recovery_demand(prefix items + candidate
    item + (running max hard cost, budget))``, which only needs
    recomputing when the running maximum changes.  All quantities are
    integers, so equality is exact
    (``tests/test_synthesis_differential.py::
    test_fast_oracle_matches_reference_oracle`` cross-checks against
    the reference oracle on randomized prefixes and probes).
    """

    __slots__ = (
        "ctx", "budget", "slack_sharing", "_start", "_prefix_wcet", "_top",
        "_private_demand", "_prefix_infeasible", "_hard_scheduled",
        "_hard_order", "_rem", "_soft_limit",
    )

    def __init__(
        self, ctx: SchedulingContext, fault_budget: int, start_time: int,
        prior_completed: int, slack_sharing: bool,
    ):
        self.ctx = ctx
        self.budget = fault_budget
        self.slack_sharing = slack_sharing
        self._start = start_time
        self._prefix_wcet = 0
        self._top = TopNeeds(fault_budget)
        self._private_demand = 0
        self._prefix_infeasible = False
        self._hard_scheduled = 0
        self._hard_order = tuple(
            p for p in ctx.edf_hard if not prior_completed >> p & 1
        )
        self._rem: Optional[List[Tuple[int, int, int, int]]] = None
        self._soft_limit: Optional[int] = None

    def on_schedule(self, p: int, reexecutions: int) -> None:
        ctx = self.ctx
        self._prefix_wcet += ctx.wcet[p]
        if reexecutions > 0:
            # The soft-probe limit depends only on the demand state and
            # the remaining hard order — invalidate it exactly when one
            # of those changes (below for the hard order).
            self._soft_limit = None
            if self.slack_sharing:
                self._top.add(ctx.need[p], reexecutions)
            else:
                self._private_demand += ctx.need[p] * min(
                    reexecutions, self.budget
                )
        if ctx.is_hard[p]:
            self._hard_scheduled |= 1 << p
            self._rem = None
            self._soft_limit = None
            demand = (
                self._top.demand()
                if self.slack_sharing
                else self._private_demand
            )
            if self._start + self._prefix_wcet + demand > ctx.deadline[p]:
                self._prefix_infeasible = True

    def _remaining(self) -> List[Tuple[int, int, int, int]]:
        if self._rem is None:
            ctx = self.ctx
            scheduled = self._hard_scheduled
            self._rem = [
                (p, ctx.wcet[p], ctx.need[p], ctx.deadline[p])
                for p in self._hard_order
                if not scheduled >> p & 1
            ]
        return self._rem

    def _tail_limit(
        self, items: List[Tuple[int, int]], demand: int, skip: int = -1
    ) -> int:
        """The latest clock before the remaining hard tail (``skip``
        left out) at which every tail deadline and the period hold,
        ``min_j(deadline_j - Σwcet_j - demand_j)``, from the prefix's
        demand ``items`` (sorted by cost, descending) or its private
        ``demand``: the reference probe's walk, one comparison per
        step turned into one bound."""
        budget = self.budget
        cum_wcet = 0
        limit: Optional[int] = None
        running_max = -1
        for p, wcet, need, deadline in self._remaining():
            if p == skip:
                continue
            cum_wcet += wcet
            if not self.slack_sharing:
                demand += need * budget
            elif need > running_max:
                running_max = need
                demand = _demand_with_max(items, running_max, budget)
            slack = deadline - cum_wcet - demand
            if limit is None or slack < limit:
                limit = slack
        period_slack = self.ctx.period - cum_wcet - demand
        return period_slack if limit is None or period_slack < limit else limit

    def _soft_probe_limit(self) -> int:
        """The tail limit of a zero-re-execution soft probe: it depends
        only on the prefix state, so it is computed once per prefix and
        each such probe is a single integer comparison."""
        if self._soft_limit is None:
            self._soft_limit = self._tail_limit(
                self._top._items,
                self._top.demand()
                if self.slack_sharing
                else self._private_demand,
            )
        return self._soft_limit

    def check(self, candidate: int, reexecutions: Optional[int] = None) -> bool:
        if self._prefix_infeasible:
            return False
        ctx = self.ctx
        budget = self.budget
        hard_candidate = ctx.is_hard[candidate]
        if reexecutions is None:
            reexecutions = budget if hard_candidate else 0
        clock = self._start + self._prefix_wcet + ctx.wcet[candidate]
        if not hard_candidate and reexecutions == 0:
            return clock <= self._soft_probe_limit()
        items = self._top._items
        need = ctx.need[candidate]
        if not self.slack_sharing:
            demand = self._private_demand + need * min(reexecutions, budget)
        elif reexecutions > 0:
            demand = self._top.demand((need, reexecutions))
            items = sorted(
                items + [(need, min(reexecutions, budget))], reverse=True
            )
        else:
            demand = self._top.demand()
        if hard_candidate and clock + demand > ctx.deadline[candidate]:
            return False
        return clock <= self._tail_limit(items, demand, candidate)

    def schedulable(self, candidates: int) -> int:
        """``GetSchedulable`` over a mask: the candidates whose default
        probe passes (soft ones inline, against the soft-probe
        limit)."""
        if self._prefix_infeasible:
            return 0
        ctx = self.ctx
        passed = 0
        soft = candidates & ctx.soft_mask
        if soft:
            base = self._start + self._prefix_wcet
            limit = self._soft_probe_limit()
            wcet = ctx.wcet
            for p in pids(soft):
                if base + wcet[p] <= limit:
                    passed |= 1 << p
        for p in pids(candidates & ctx.hard_mask):
            if self.check(p):
                passed |= 1 << p
        return passed

    def extended(self, p: int, reexecutions: int) -> "FastOracle":
        clone = FastOracle.__new__(FastOracle)
        clone.ctx = self.ctx
        clone.budget = self.budget
        clone.slack_sharing = self.slack_sharing
        clone._start = self._start
        clone._prefix_wcet = self._prefix_wcet
        clone._top = self._top.copy()
        clone._private_demand = self._private_demand
        clone._prefix_infeasible = self._prefix_infeasible
        clone._hard_scheduled = self._hard_scheduled
        clone._hard_order = self._hard_order
        clone._rem = self._rem  # rebuilt lists are never mutated
        clone._soft_limit = self._soft_limit
        clone.on_schedule(p, reexecutions)
        return clone


class TailRun:
    """One FTSS run over a :class:`SchedulingContext` — an exact clone
    of :func:`repro.scheduling.ftss.ftss_reference` with
    ``fast_paths=True`` semantics.

    ``config`` is the run's
    :class:`~repro.scheduling.ftss.FTSSConfig`; the prior sets are
    masks (see :meth:`SchedulingContext.prior_masks`).
    """

    def __init__(
        self, ctx: SchedulingContext, config, fault_budget: int,
        start_time: int, prior_completed: int, prior_dropped: int,
    ):
        self.ctx = ctx
        self.config = config
        self.decision_time = ctx.aet if config.optimize_for == "aet" else ctx.wcet
        self.budget = fault_budget
        self.start_time = start_time
        self.prior_completed = prior_completed
        self.prior_dropped = prior_dropped
        self.entries: List[ScheduledEntry] = []
        self.clock = start_time
        #: Scheduled, dropped or done before the start.
        self.settled = prior_completed | prior_dropped
        #: Dropped before the start or by this run.
        self.dropped = prior_dropped
        preds = ctx.preds
        settled = self.settled
        ready = 0
        for p in range(len(ctx.names)):
            if not settled >> p & 1 and not preds[p] & ~settled:
                ready |= 1 << p
        self.ready = ready
        self.oracle = FastOracle(
            ctx, fault_budget, start_time, prior_completed, config.slack_sharing
        )

    # -- state transitions ---------------------------------------------
    def _settle(self, p: int) -> None:
        preds = self.ctx.preds
        settled = self.settled | 1 << p
        self.settled = settled
        ready = self.ready & ~(1 << p)
        for s in self.ctx.succs[p]:
            if not settled >> s & 1 and not preds[s] & ~settled:
                ready |= 1 << s
        self.ready = ready

    def _drop(self, p: int) -> None:
        self.dropped |= 1 << p
        self._settle(p)

    def _schedule(self, p: int, reexecutions: int) -> None:
        self.entries.append(ScheduledEntry(self.ctx.names[p], reexecutions))
        self.clock += self.decision_time[p]
        self.oracle.on_schedule(p, reexecutions)
        self._settle(p)

    # -- heuristic steps ------------------------------------------------
    def _drop_utilities(self, candidates: int):
        """``(U(keep), [(p, U(drop p)) ...])`` for the removal-scored
        dropping evaluation of ``candidates`` (increasing pids)."""
        ctx = self.ctx
        clock = self.clock
        dropped = self.dropped
        keep_order = ctx.greedy_order(
            ctx.soft_mask & ~self.settled, clock, dropped
        )
        keep_utility = ctx.hyp_utility(keep_order, clock, dropped)
        drops = []
        for p in pids(candidates):
            # Every candidate is in the pool, so in the keep order.
            at = keep_order.index(p)
            rest = keep_order[:at] + keep_order[at + 1 :]
            drops.append(
                (p, ctx.hyp_utility(rest, clock, dropped | 1 << p))
            )
        return keep_utility, drops

    def _determine_dropping(self) -> List[int]:
        keep_utility, drops = self._drop_utilities(
            self.ready & self.ctx.soft_mask
        )
        return [p for p, utility in drops if keep_utility <= utility]

    def _forced_choice(self) -> Optional[int]:
        ready_soft = self.ready & self.ctx.soft_mask
        if not ready_soft:
            return None
        keep_utility, drops = self._drop_utilities(ready_soft)
        victim = None
        least = None
        for p, utility in drops:
            loss = keep_utility - utility
            if least is None or loss < least:
                least = loss
                victim = p
        return victim

    def _best_process(self, candidates: int) -> int:
        ctx = self.ctx
        soft = candidates & ctx.soft_mask
        if soft:
            return ctx.best_soft(
                soft,
                self.clock,
                self.dropped,
                ctx.alphas(self.dropped),
                self.config.successor_weight,
            )
        deadline = ctx.deadline
        pick = -1
        for p in pids(candidates & ctx.hard_mask):
            if pick < 0 or deadline[p] < deadline[pick]:
                pick = p
        return pick

    def _allotment(self, p: int) -> int:
        if not self.config.soft_reexecution or self.budget == 0:
            return 0
        oracle = self.oracle
        rest = self.ctx.soft_mask & ~self.settled & ~(1 << p)
        fits_without: Optional[int] = None
        granted = 0
        for r in range(1, self.budget + 1):
            if not oracle.check(p, reexecutions=r):
                break
            if rest:
                # Second-order probe: would the reserved slack push
                # other soft processes out of schedulability?  The
                # no-grant side does not depend on r — probe it once.
                if fits_without is None:
                    fits_without = oracle.extended(p, 0).schedulable(rest)
                fits_with = oracle.extended(p, r).schedulable(fits_without)
                if fits_without & ~fits_with:
                    break
            if not self._beneficial(p, r, rest):
                break
            granted = r
        return granted

    def _beneficial(self, p: int, r: int, rest: int) -> bool:
        ctx = self.ctx
        t = self.decision_time[p]
        mu = ctx.mu[p]
        clock = self.clock
        dropped = self.dropped

        completion = clock + (r + 1) * t + r * mu
        keep_order = ctx.greedy_order(rest, completion, dropped)
        keep_utility = ctx.hyp_utility(
            (p,) + keep_order, clock + r * (t + mu), dropped
        )

        giveup_time = clock + r * t + (r - 1) * mu if r > 0 else clock
        drop_dropped = dropped | 1 << p
        drop_order = ctx.greedy_order(rest, giveup_time, drop_dropped)
        drop_utility = ctx.hyp_utility(drop_order, giveup_time, drop_dropped)
        return keep_utility > drop_utility

    # -- the list-scheduling loop ---------------------------------------
    def run(self) -> Optional[FSchedule]:
        ctx = self.ctx
        config = self.config
        oracle = self.oracle
        while self.ready:
            if config.drop_heuristic:
                for p in self._determine_dropping():
                    self._drop(p)
                if not self.ready:
                    break

            schedulable = oracle.schedulable(self.ready)

            while not schedulable:
                victim = self._forced_choice()
                if victim is None:
                    break
                self._drop(victim)
                if not self.ready:
                    break
                schedulable = oracle.schedulable(self.ready)
            if not self.ready:
                break
            if not schedulable:
                return None

            best = self._best_process(schedulable)
            if ctx.is_hard[best]:
                reexecutions = self.budget
            else:
                reexecutions = self._allotment(best)
            self._schedule(best, reexecutions)

        schedule = FSchedule(
            ctx.app,
            self.entries,
            start_time=self.start_time,
            fault_budget=self.budget,
            prior_completed=ctx.names_of(self.prior_completed),
            prior_dropped=ctx.names_of(self.prior_dropped),
            slack_sharing=config.slack_sharing,
        )
        limit = ctx.latest_start(schedule)  # is_schedulable, from the tables
        if limit is None or schedule.start_time > limit:
            return None
        return schedule
