"""Fast FTQS synthesis engine (the design-time counterpart of PR 1/2).

:mod:`repro.quasistatic.ftqs` remains the *behavioral oracle* of tree
construction — deliberately simple, one full FTSS run per candidate,
interval partitioning evaluated point by point.  This module rebuilds
that hot path for paper-scale sweeps while producing **byte-identical
trees** (``tests/test_synthesis_differential.py`` asserts node, arc,
interval and schedule equality over a randomized corpus, for any job
count):

* **Memoized tail scheduling** — one :class:`_Ctx` per build compiles
  the application into lookup tables (execution times, recovery needs,
  soft successor lists, the global modified-deadline EDF order) and
  memoizes every pure evaluation the FTSS heuristics repeat:
  stale-value coefficient maps per dropped set, greedy soft orders and
  hypothetical utilities per (pool, clock, dropped set), and whole
  tail schedules per (budget, start, completed, dropped).  The
  feasibility probes run against :class:`_FastOracle`, which shares
  the app tables, filters the prefix's hard order out of the global
  EDF sort (a subsequence of a static sort is the sort of the subset)
  and collapses the per-probe hard-tail walk using the fact that hard
  processes carry full-budget re-execution caps, so only the running
  maximum of their recovery costs can contribute to the shared demand.

* **Vectorized interval partitioning** — the safety bound t_ic falls
  out of a closed form (worst-case completions are ``start + const``,
  so feasibility flips at ``min(deadline_i - const_i, period -
  const_last)``; no bisection), and the expected-utility profiles are
  evaluated over *all* critical points at once with NumPy, keeping the
  scalar path's accumulation order per point so every float is
  bit-identical.  Schedule similarity is maintained incrementally (a
  per-node running maximum updated on insertion) instead of O(tree)
  per query.

* **Parallel candidate layer** — the candidates of one FTQS expansion
  are independent; with ``jobs > 1`` they are sharded across a
  persistent :class:`~repro.runtime.engine.parallel.TaskPool` whose
  workers each build a ``jobs=1`` engine once from the pool's
  :class:`~repro.runtime.engine.parallel.WorkerContext`, and merged in
  generation order, so the admitted children (and therefore node ids,
  arcs and the final tree) are identical for any job count.
"""

from __future__ import annotations

import math
import time
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.quasistatic.ftqs import DEFAULT_FTQS_CONFIG, FTQSConfig
from repro.quasistatic.intervals import PartitionResult, TailProfile, TailTerm
from repro.quasistatic.similarity import schedule_similarity
from repro.quasistatic.tree import QSNode, QSTree, SwitchArc
from repro.scheduling.feasibility import TopNeeds, latest_start
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
from repro.scheduling.ftss import ftss
from repro.scheduling.priority import SUCCESSOR_WEIGHT
from repro.scheduling.schedulability import edf_hard_order
from repro.utility.functions import StepUtility, TabulatedUtility
from repro.utility.stale import stale_coefficients

def _compile_utility(process) -> Callable[[int], float]:
    """A fast evaluator for ``process.utility_at``.

    Step-shaped functions (the paper's canonical shape) compile into a
    bisect over their breakpoint times with the *stored* step values,
    so every returned float is the exact object the interpreted scan
    would return.  Other shapes keep the bound method.
    """
    fn = getattr(process, "utility", None)
    if isinstance(fn, StepUtility):
        times = [t for t, _ in fn.steps]
        values = [v for _, v in fn.steps]
        initial = fn.initial

        def step_value(t: int) -> float:
            # value_at applies every step with step_t < t.
            taken = bisect_left(times, t)
            return initial if taken == 0 else values[taken - 1]

        return step_value
    if isinstance(fn, TabulatedUtility):
        times = [t for t, _ in fn.samples]
        values = [v for _, v in fn.samples]

        def tabulated_value(t: int) -> float:
            # value_at applies every sample with sample_t <= t.
            taken = bisect_right(times, t)
            return values[0] if taken == 0 else values[taken - 1]

        return tabulated_value
    return process.utility_at


def _demand(items: List[Tuple[int, int]], faults: int) -> int:
    """:func:`shared_recovery_demand` with tuple-order sorting.

    Sorting ``(cost, cap)`` tuples descending instead of by ``-cost``
    only reorders equal-cost entries, which cannot change the greedy
    total (equal-cost takes commute), and skips the per-call lambda.
    """
    if faults <= 0:
        return 0
    remaining = faults
    total = 0
    for cost, cap in sorted(items, reverse=True):
        if remaining <= 0:
            break
        take = cap if cap < remaining else remaining
        total += take * cost
        remaining -= take
    return total


@dataclass
class SynthesisStats:
    """Counters of one (or several, merged) fast tree constructions.

    ``memo_hits`` counts candidates whose tail schedule came out of the
    memo instead of a fresh FTSS run; with ``jobs > 1`` the workers'
    memos are process-local, so the counters reflect only parent-side
    work.  ``store_hits``/``store_misses`` count tree-store lookups
    when the caller synthesizes through a
    :class:`repro.pipeline.store.TreeStore` (a hit skips the build
    entirely, so ``trees_built`` stays untouched); a corrupted or
    error-raising entry counts as a miss.  :meth:`absorb_store` folds
    in the store's backend-level error count and backend name so the
    summary line can report them.
    """

    trees_built: int = 0
    nodes_expanded: int = 0
    candidates_evaluated: int = 0
    memo_hits: int = 0
    tails_scheduled: int = 0
    wall_seconds: float = 0.0
    store_hits: int = 0
    store_misses: int = 0
    store_errors: int = 0
    store_retries: int = 0
    store_degraded: int = 0
    store_backend: str = ""

    def merge(self, other: "SynthesisStats") -> None:
        self.trees_built += other.trees_built
        self.nodes_expanded += other.nodes_expanded
        self.candidates_evaluated += other.candidates_evaluated
        self.memo_hits += other.memo_hits
        self.tails_scheduled += other.tails_scheduled
        self.wall_seconds += other.wall_seconds
        self.store_hits += other.store_hits
        self.store_misses += other.store_misses
        self.store_errors += other.store_errors
        self.store_retries += other.store_retries
        self.store_degraded += other.store_degraded
        self.store_backend = self.store_backend or other.store_backend

    def absorb_store(self, store) -> None:
        """Fold one :class:`~repro.pipeline.store.TreeStore`'s
        backend-level view in: the read-error count (entries that
        raised and degraded to misses) and the backend's name.  Hits
        and misses are *not* taken from the store — the pipeline
        counts them per run, while a shared store's counters span its
        whole lifetime."""
        metrics = store.metrics
        self.store_errors += metrics.errors
        self.store_retries += metrics.retries
        self.store_degraded += metrics.degraded
        self.store_backend = store.backend_name

    def summary_line(self) -> str:
        """One-line summary mirroring the simulate fast-path line."""
        store = ""
        if (
            self.store_hits
            or self.store_misses
            or self.store_errors
            or self.store_backend
        ):
            backend = self.store_backend or "store"
            store = (
                f", store[{backend}] {self.store_hits} hits / "
                f"{self.store_misses} misses / "
                f"{self.store_errors} errors"
            )
            # Resilience counters ride along only when they fired, so
            # the common-case line (and its exact-string tests) is
            # unchanged.
            if self.store_retries:
                store += f" / {self.store_retries} retries"
            if self.store_degraded:
                store += (
                    f" / {self.store_degraded} degraded-to-memory ops"
                )
        return (
            f"synthesis: {self.trees_built} tree(s), "
            f"{self.nodes_expanded} nodes expanded, "
            f"{self.candidates_evaluated} candidates "
            f"({self.memo_hits} memo hits), "
            f"{self.wall_seconds:.2f}s"
            f"{store}"
        )


class _Ctx:
    """Compiled per-application tables plus the evaluation memos."""

    def __init__(self, app, config: FTQSConfig):
        self.app = app
        self.config = config
        graph = app.graph
        self.period = app.period
        self.names: List[str] = list(graph.process_names)
        self.wcet = {p.name: p.wcet for p in app.processes}
        self.bcet = {p.name: p.bcet for p in app.processes}
        self.aet = {p.name: p.aet for p in app.processes}
        self.deadline = {p.name: p.deadline for p in app.processes}
        self.need = {p.name: app.recovery_need(p.name) for p in app.processes}
        self.mu = {
            p.name: app.recovery_overhead(p.name) for p in app.processes
        }
        self.hard_set: Set[str] = {p.name for p in app.hard}
        self.soft_set: Set[str] = {p.name for p in app.soft}
        self.soft_names: List[str] = [p.name for p in app.soft]
        self.preds = {n: graph.predecessors(n) for n in self.names}
        self.succs = {n: graph.successors(n) for n in self.names}
        self.utility_at = {
            n: _compile_utility(graph[n]) for n in self.names
        }
        # Soft successors only: the lookahead term of the MU priority
        # skips hard successors unconditionally, so prefiltering them
        # does not change which terms enter the sum.
        self.soft_succ = {
            n: [
                (s, self.aet[s], self.utility_at[s])
                for s in self.succs[n]
                if s in self.soft_set
            ]
            for n in self.names
        }
        # Global modified-deadline EDF order of every hard process: the
        # order is a static sort, so the remaining-hard order of any
        # prefix is this list filtered (see schedulability.py).
        self.edf_hard_full: List[str] = edf_hard_order(
            app, [p.name for p in app.hard]
        )
        self.decision_time = (
            self.aet if config.ftss.optimize_for == "aet" else self.wcet
        )
        self._alphas: Dict[FrozenSet[str], Dict[str, float]] = {}
        self._greedy: Dict[Tuple, List[str]] = {}
        self._hyp: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------
    # Memoized pure evaluations
    # ------------------------------------------------------------------
    def alphas(self, dropped: FrozenSet[str]) -> Dict[str, float]:
        """Stale coefficients per dropped set (delegates on miss)."""
        hit = self._alphas.get(dropped)
        if hit is None:
            hit = stale_coefficients(self.app.graph, dropped)
            self._alphas[dropped] = hit
        return hit

    def priorities(
        self,
        ready: Sequence[str],
        clock: int,
        dropped: FrozenSet[str],
        alphas: Dict[str, float],
        weight: float,
    ) -> Dict[str, float]:
        """Exact clone of :func:`repro.scheduling.priority.soft_priorities`."""
        period = self.period
        aet = self.aet
        utility_at = self.utility_at
        soft_succ = self.soft_succ
        out: Dict[str, float] = {}
        for name in ready:
            duration = aet[name]
            completion = clock + duration
            if completion > period:
                own = 0.0
            else:
                own = alphas[name] * utility_at[name](completion)
            lookahead = 0.0
            for succ, succ_aet, succ_utility in soft_succ[name]:
                if succ in dropped:
                    continue
                succ_completion = completion + succ_aet
                if succ_completion > period:
                    continue
                lookahead += alphas[succ] * succ_utility(succ_completion)
            out[name] = (own + weight * lookahead) / max(duration, 1)
        return out

    @staticmethod
    def best_of(priorities: Dict[str, float]) -> str:
        """``max(sorted(names), key=priorities.get)`` without sorting:
        the smallest name among the argmax set (same pick for any
        iteration order)."""
        pick = None
        best = None
        for name, value in priorities.items():
            if (
                best is None
                or value > best
                or (value == best and name < pick)
            ):
                best = value
                pick = name
        return pick

    def greedy_order(
        self, pool: Sequence[str], now: int, dropped: FrozenSet[str]
    ) -> List[str]:
        """Memoized clone of :func:`repro.scheduling.dropping.greedy_soft_order`.

        Maintains in-pool predecessor counts instead of rescanning the
        remaining set, which turns the ready-list maintenance from
        O(s²·deg) into O(s + edges) per call.  Callers must not mutate
        the returned list.
        """
        key = (frozenset(pool), now, dropped)
        hit = self._greedy.get(key)
        if hit is not None:
            return hit
        alphas = self.alphas(dropped)
        remaining = set(key[0])
        preds = self.preds
        indegree = {
            n: sum(1 for p in preds[n] if p in remaining) for n in remaining
        }
        order: List[str] = []
        clock = now
        while remaining:
            ready = [n for n in remaining if indegree[n] == 0]
            if not ready:
                # Mirror the reference's cycle fallback.
                ready = sorted(remaining)
            priorities = self.priorities(
                ready, clock, dropped, alphas, SUCCESSOR_WEIGHT
            )
            pick = self.best_of(priorities)
            order.append(pick)
            remaining.remove(pick)
            for succ in self.succs[pick]:
                if succ in remaining:
                    indegree[succ] -= 1
            clock += self.aet[pick]
        self._greedy[key] = order
        return order

    def hyp_utility(
        self, order: Sequence[str], now: int, dropped: FrozenSet[str]
    ) -> float:
        """Memoized clone of :func:`repro.scheduling.dropping.hypothetical_utility`."""
        key = (tuple(order), now, dropped)
        hit = self._hyp.get(key)
        if hit is not None:
            return hit
        executed = set(order)
        dropped_all = set(dropped)
        for name in self.soft_names:
            if name not in executed and name not in dropped_all:
                dropped_all.add(name)
        alphas = self.alphas(frozenset(dropped_all))
        clock = now
        total = 0.0
        period = self.period
        for name in order:
            clock += self.aet[name]
            if clock > period:
                continue
            total += alphas[name] * self.utility_at[name](clock)
        self._hyp[key] = total
        return total


class _FastOracle:
    """Drop-in for :class:`~repro.scheduling.feasibility.FeasibilityOracle`
    over the compiled app tables.

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
        "ctx",
        "budget",
        "slack_sharing",
        "_start",
        "_prefix_wcet",
        "_top",
        "_private_demand",
        "_prefix_infeasible",
        "_hard_scheduled",
        "_hard_order",
        "_rem",
        "_soft_limit",
    )

    def __init__(
        self,
        ctx: _Ctx,
        fault_budget: int,
        start_time: int,
        prior_completed: FrozenSet[str],
        slack_sharing: bool,
    ):
        self.ctx = ctx
        self.budget = fault_budget
        self.slack_sharing = slack_sharing
        self._start = start_time
        self._prefix_wcet = 0
        self._top = TopNeeds(fault_budget)
        self._private_demand = 0
        self._prefix_infeasible = False
        self._hard_scheduled: Set[str] = set()
        self._hard_order = [
            n for n in ctx.edf_hard_full if n not in prior_completed
        ]
        self._rem: Optional[List[Tuple[str, int, int, int]]] = None
        self._soft_limit: Optional[int] = None

    def on_schedule(self, name: str, reexecutions: int) -> None:
        ctx = self.ctx
        self._prefix_wcet += ctx.wcet[name]
        if reexecutions > 0:
            # The soft-probe limit depends only on the demand state and
            # the remaining hard order — invalidate it exactly when one
            # of those changes (below for the hard order).
            self._soft_limit = None
            if self.slack_sharing:
                self._top.add(ctx.need[name], reexecutions)
            else:
                self._private_demand += ctx.need[name] * min(
                    reexecutions, self.budget
                )
        if name in ctx.hard_set:
            self._hard_scheduled.add(name)
            self._rem = None
            self._soft_limit = None
            demand = (
                self._top.demand()
                if self.slack_sharing
                else self._private_demand
            )
            if self._start + self._prefix_wcet + demand > ctx.deadline[name]:
                self._prefix_infeasible = True

    def _remaining(self) -> List[Tuple[str, int, int, int]]:
        if self._rem is None:
            ctx = self.ctx
            scheduled = self._hard_scheduled
            self._rem = [
                (n, ctx.wcet[n], ctx.need[n], ctx.deadline[n])
                for n in self._hard_order
                if n not in scheduled
            ]
        return self._rem

    def _soft_probe_limit(self) -> int:
        """Largest pre-hard-tail clock a zero-re-execution soft probe
        may reach and stay feasible.

        The hard-tail walk for ``extra=None`` depends only on the
        prefix state: its demand sequence is fixed, so the per-step
        deadline tests collapse to one precomputed bound —
        ``min_j(deadline_j - Σwcet_j - demand_j)`` plus the period
        test — and each probe is a single integer comparison.
        """
        if self._soft_limit is None:
            budget = self.budget
            cum_wcet = 0
            limit: Optional[int] = None
            if self.slack_sharing:
                base_items = self._top._items
                demand = self._top.demand()
                running_max = -1
                for _, wcet, need, deadline in self._remaining():
                    cum_wcet += wcet
                    if need > running_max:
                        running_max = need
                        demand = _demand(
                            base_items + [(running_max, budget)], budget
                        )
                    slack = deadline - cum_wcet - demand
                    if limit is None or slack < limit:
                        limit = slack
            else:
                demand = self._private_demand
                for _, wcet, need, deadline in self._remaining():
                    cum_wcet += wcet
                    demand += need * budget
                    slack = deadline - cum_wcet - demand
                    if limit is None or slack < limit:
                        limit = slack
            period_slack = self.ctx.period - cum_wcet - demand
            if limit is None or period_slack < limit:
                limit = period_slack
            self._soft_limit = limit
        return self._soft_limit

    def check(
        self, candidate: str, reexecutions: Optional[int] = None
    ) -> bool:
        if self._prefix_infeasible:
            return False
        ctx = self.ctx
        budget = self.budget
        hard_candidate = candidate in ctx.hard_set
        if reexecutions is None:
            reexecutions = budget if hard_candidate else 0
        clock = self._start + self._prefix_wcet + ctx.wcet[candidate]
        if not hard_candidate and reexecutions == 0:
            return clock <= self._soft_probe_limit()
        if self.slack_sharing:
            extra = (
                (ctx.need[candidate], reexecutions)
                if reexecutions > 0
                else None
            )
            demand = self._top.demand(extra)
        else:
            demand = self._private_demand + ctx.need[candidate] * min(
                reexecutions, budget
            )
        if hard_candidate and clock + demand > ctx.deadline[candidate]:
            return False

        if self.slack_sharing:
            base_items = list(self._top._items)
            if extra is not None:
                base_items.append((extra[0], min(extra[1], budget)))
            running_max = -1
            for name, wcet, need, deadline in self._remaining():
                if name == candidate:
                    continue
                clock += wcet
                if need > running_max:
                    running_max = need
                    demand = _demand(
                        base_items + [(running_max, budget)], budget
                    )
                if clock + demand > deadline:
                    return False
        else:
            for name, wcet, need, deadline in self._remaining():
                if name == candidate:
                    continue
                clock += wcet
                demand += need * budget
                if clock + demand > deadline:
                    return False
        return clock + demand <= ctx.period

    def schedulable_subset(self, candidates: Sequence[str]) -> List[str]:
        return [name for name in candidates if self.check(name)]

    def extended(self, name: str, reexecutions: int) -> "_FastOracle":
        clone = _FastOracle.__new__(_FastOracle)
        clone.ctx = self.ctx
        clone.budget = self.budget
        clone.slack_sharing = self.slack_sharing
        clone._start = self._start
        clone._prefix_wcet = self._prefix_wcet
        clone._top = self._top.copy()
        clone._private_demand = self._private_demand
        clone._prefix_infeasible = self._prefix_infeasible
        clone._hard_scheduled = set(self._hard_scheduled)
        clone._hard_order = self._hard_order
        clone._rem = self._rem  # rebuilt lists are never mutated
        clone._soft_limit = self._soft_limit
        clone.on_schedule(name, reexecutions)
        return clone


class _TailRun:
    """One fast FTSS run — an exact clone of :func:`repro.scheduling.ftss.ftss`
    over the compiled tables and memos (``fast_paths=True`` semantics;
    runs with ``fast_paths=False`` are delegated to the reference)."""

    def __init__(
        self,
        ctx: _Ctx,
        fault_budget: int,
        start_time: int,
        prior_completed: FrozenSet[str],
        prior_dropped: FrozenSet[str],
    ):
        self.ctx = ctx
        self.config = ctx.config.ftss
        self.budget = fault_budget
        self.start_time = start_time
        self.prior_completed = prior_completed
        self.prior_dropped = prior_dropped
        self.entries: List[ScheduledEntry] = []
        self.dropped: Set[str] = set()
        self.clock = start_time
        self._scheduled: Set[str] = set()
        self._settled: Set[str] = set(prior_completed) | set(prior_dropped)
        self._all_dropped: FrozenSet[str] = frozenset(prior_dropped)
        self.ready: Set[str] = set()
        for name in ctx.names:
            if name in self._settled:
                continue
            if all(p in self._settled for p in ctx.preds[name]):
                self.ready.add(name)
        self.oracle = _FastOracle(
            ctx,
            fault_budget,
            start_time,
            prior_completed,
            self.config.slack_sharing,
        )

    # -- state transitions ---------------------------------------------
    def _settle(self, name: str) -> None:
        self._settled.add(name)
        self.ready.discard(name)
        for succ in self.ctx.succs[name]:
            if succ not in self._settled and all(
                p in self._settled for p in self.ctx.preds[succ]
            ):
                self.ready.add(succ)

    def _drop(self, name: str) -> None:
        self.dropped.add(name)
        self._all_dropped = frozenset(self.dropped | self.prior_dropped)
        self._settle(name)

    def _schedule(self, name: str, reexecutions: int) -> None:
        self.entries.append(ScheduledEntry(name, reexecutions))
        self.clock += self.ctx.decision_time[name]
        self.oracle.on_schedule(name, reexecutions)
        self._scheduled.add(name)
        self._settle(name)

    def _unscheduled_soft(self) -> List[str]:
        return [
            n
            for n in self.ctx.soft_names
            if n not in self._scheduled
            and n not in self._all_dropped
            and n not in self.prior_completed
        ]

    # -- heuristic steps ------------------------------------------------
    def _determine_dropping(self, ready: Sequence[str]) -> List[str]:
        ctx = self.ctx
        dropped = self._all_dropped
        pool = self._unscheduled_soft()
        keep_order = ctx.greedy_order(pool, self.clock, dropped)
        keep_utility = ctx.hyp_utility(keep_order, self.clock, dropped)
        to_drop: List[str] = []
        for name in ready:
            if name not in ctx.soft_set:
                continue
            rest = [n for n in keep_order if n != name]
            drop_utility = ctx.hyp_utility(
                rest, self.clock, dropped | {name}
            )
            if keep_utility <= drop_utility:
                to_drop.append(name)
        return to_drop

    def _forced_choice(self, ready_soft: Sequence[str]) -> Optional[str]:
        if not ready_soft:
            return None
        ctx = self.ctx
        dropped = self._all_dropped
        pool = self._unscheduled_soft()
        keep_order = ctx.greedy_order(pool, self.clock, dropped)
        keep_utility = ctx.hyp_utility(keep_order, self.clock, dropped)
        losses: Dict[str, float] = {}
        for name in ready_soft:
            rest = [n for n in keep_order if n != name]
            drop_utility = ctx.hyp_utility(
                rest, self.clock, dropped | {name}
            )
            losses[name] = keep_utility - drop_utility
        return min(sorted(losses), key=lambda n: losses[n])

    def _best_process(self, candidates: Sequence[str]) -> str:
        ctx = self.ctx
        soft_candidates = [n for n in candidates if n in ctx.soft_set]
        if soft_candidates:
            dropped = self._all_dropped
            priorities = ctx.priorities(
                soft_candidates,
                self.clock,
                dropped,
                ctx.alphas(dropped),
                self.config.successor_weight,
            )
            return ctx.best_of(priorities)
        hard_candidates = [n for n in candidates if n in ctx.hard_set]
        return min(
            sorted(hard_candidates), key=lambda n: (ctx.deadline[n], n)
        )

    def _allotment(self, name: str) -> int:
        ctx = self.ctx
        config = self.config
        if not config.soft_reexecution or self.budget == 0:
            return 0
        rest = [n for n in self._unscheduled_soft() if n != name]
        without: Optional[_FastOracle] = None
        without_checks: Dict[str, bool] = {}
        granted = 0
        for r in range(1, self.budget + 1):
            if not self.oracle.check(name, reexecutions=r):
                break
            if rest:
                # Second-order probe: would the reserved slack push
                # other soft processes out of schedulability?  The
                # no-grant side does not depend on r — probe it once.
                if without is None:
                    without = self.oracle.extended(name, 0)
                with_grant = self.oracle.extended(name, r)
                squeezed = False
                for other in rest:
                    ok_without = without_checks.get(other)
                    if ok_without is None:
                        ok_without = without.check(other)
                        without_checks[other] = ok_without
                    if ok_without and not with_grant.check(other):
                        squeezed = True
                        break
                if squeezed:
                    break
            if not self._beneficial(name, r, rest):
                break
            granted = r
        return granted

    def _beneficial(self, name: str, r: int, rest: Sequence[str]) -> bool:
        ctx = self.ctx
        t = ctx.decision_time[name]
        mu = ctx.mu[name]
        dropped = self._all_dropped

        completion = self.clock + (r + 1) * t + r * mu
        keep_order = ctx.greedy_order(rest, completion, dropped)
        keep_utility = ctx.hyp_utility(
            [name] + keep_order, self.clock + r * (t + mu), dropped
        )

        giveup_time = self.clock + r * t + (r - 1) * mu if r > 0 else self.clock
        drop_dropped = dropped | {name}
        drop_order = ctx.greedy_order(rest, giveup_time, drop_dropped)
        drop_utility = ctx.hyp_utility(drop_order, giveup_time, drop_dropped)
        return keep_utility > drop_utility

    # -- the list-scheduling loop ---------------------------------------
    def run(self) -> Optional[FSchedule]:
        ctx = self.ctx
        config = self.config
        while self.ready:
            ready_sorted = sorted(self.ready)
            if config.drop_heuristic:
                for name in self._determine_dropping(ready_sorted):
                    self._drop(name)
                if not self.ready:
                    break
                ready_sorted = sorted(self.ready)

            schedulable = self.oracle.schedulable_subset(ready_sorted)

            while not schedulable:
                ready_soft = [
                    n for n in sorted(self.ready) if n in ctx.soft_set
                ]
                victim = self._forced_choice(ready_soft)
                if victim is None:
                    break
                self._drop(victim)
                if not self.ready:
                    break
                schedulable = self.oracle.schedulable_subset(
                    sorted(self.ready)
                )
            if not self.ready:
                break
            if not schedulable:
                return None

            best = self._best_process(schedulable)
            if best in ctx.hard_set:
                reexecutions = self.budget
            else:
                reexecutions = self._allotment(best)
            self._schedule(best, reexecutions)

        schedule = FSchedule(
            ctx.app,
            self.entries,
            start_time=self.start_time,
            fault_budget=self.budget,
            prior_completed=self.prior_completed,
            prior_dropped=self.prior_dropped,
            slack_sharing=config.slack_sharing,
        )
        if not schedule.is_schedulable():
            return None
        return schedule


# ----------------------------------------------------------------------
# Vectorized interval partitioning
# ----------------------------------------------------------------------
def fast_latest_safe_start(
    schedule: FSchedule, lo: int, hi: int, ctx: Optional[_Ctx] = None
) -> Optional[int]:
    """Closed-form :func:`repro.quasistatic.intervals.latest_safe_start`.

    Every worst-case completion of a rebased schedule is ``start +
    const`` with the constant independent of the start time, so
    :func:`~repro.scheduling.feasibility.latest_start` gives the bound
    directly — no bisection needed.
    """
    app = schedule.app
    scheduled = {e.name for e in schedule.entries}
    for proc in app.hard:
        if proc.name not in scheduled and proc.name not in schedule.prior_completed:
            return None  # a missing hard process is infeasible at any start
    if ctx is None:
        wcet = {p.name: p.wcet for p in app.processes}
        need = {p.name: app.recovery_need(p.name) for p in app.processes}
        deadline = {p.name: p.deadline for p in app.processes}
        hard_set = {p.name for p in app.hard}
    else:
        wcet, need, deadline, hard_set = (
            ctx.wcet,
            ctx.need,
            ctx.deadline,
            ctx.hard_set,
        )
    limit = latest_start(
        (
            (
                wcet[e.name],
                need[e.name],
                e.reexecutions,
                deadline[e.name] if e.name in hard_set else None,
            )
            for e in schedule.entries
        ),
        schedule.fault_budget,
        schedule.slack_sharing,
        app.period,
    )
    if lo > limit:
        return None
    return min(hi, limit)


def _survival_batch(term: TailTerm, x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.quasistatic.intervals._survival` — the
    same IEEE operations per element, branch dispatch via masks."""
    out = np.zeros(x.shape[0], dtype=np.float64)
    below = x < term.lo_sum
    out[below] = 1.0
    mid = ~below & (x < term.hi_sum)
    if not np.any(mid):
        return out
    x_mid = x[mid]
    if term.count == 1 or term.variance <= 0:
        span = term.hi_sum - term.lo_sum
        if span <= 0:
            out[mid] = 0.0
        else:
            out[mid] = np.minimum(
                1.0, np.maximum(0.0, (term.hi_sum - x_mid) / span)
            )
    else:
        sigma = math.sqrt(term.variance)
        sqrt2 = math.sqrt(2.0)
        # math.erf elementwise: SciPy's erf is not guaranteed to round
        # identically, and bit-equality with the scalar path is the
        # whole contract here.
        out[mid] = [
            0.5 * (1.0 - math.erf(((value - term.mean) / sigma) / sqrt2))
            for value in x_mid.tolist()
        ]
    return out


def _expected_piecewise_batch(
    term: TailTerm, points: np.ndarray, period: int
) -> np.ndarray:
    """Vectorized ``TailProfile._expected_piecewise`` over all points."""
    boundaries = [b for b in term.fn.breakpoints() if b < period]
    boundaries.append(period)
    expected = np.zeros(points.shape[0], dtype=np.float64)
    prev_survival = np.ones(points.shape[0], dtype=np.float64)
    prev_bound: Optional[int] = None
    for bound in boundaries:
        survival = _survival_batch(term, bound - points)
        mass = prev_survival - survival
        probe = bound if prev_bound is None else prev_bound + 1
        value = term.fn.value_at(max(0, probe))
        expected = expected + np.where(mass > 0, mass * value, 0.0)
        prev_survival = survival
        prev_bound = bound
    return expected


def _expected_quantiles(term: TailTerm, tc: int, period: int) -> float:
    """Scalar ``TailProfile._expected_quantiles`` (non-PC utilities are
    rare; the scalar path keeps them exact without compiling them)."""
    sigma = math.sqrt(max(term.variance, 0.0))
    expected = 0.0
    for z in (-1.2816, -0.5244, 0.0, 0.5244, 1.2816):
        s = term.mean + z * sigma
        s = min(max(s, term.lo_sum), term.hi_sum)
        t = tc + s
        value = 0.0 if t > period or t < 0 else term.fn.value_at(int(t))
        expected += value / 5.0
    return expected


def expected_batch(
    profile: TailProfile, points: Sequence[int]
) -> np.ndarray:
    """``profile.expected(tc)`` for every ``tc`` in ``points`` at once.

    Accumulates per-term contributions in term order with the same
    float operations as the scalar method, so each element is
    bit-identical to the scalar evaluation at that point.
    """
    pts = np.asarray(points, dtype=np.int64)
    total = np.zeros(pts.shape[0], dtype=np.float64)
    for term in profile.terms:
        if term.fn.is_piecewise_constant():
            values = _expected_piecewise_batch(term, pts, profile.period)
        else:
            values = np.array(
                [
                    _expected_quantiles(term, int(tc), profile.period)
                    for tc in pts
                ],
                dtype=np.float64,
            )
        total = total + term.alpha * values
    return total


@dataclass
class _CandidateResult:
    """One admissible candidate, ready for deterministic admission."""

    position: int
    assumed_faults: int
    switch_process: str
    tail: FSchedule
    intervals: Tuple[Tuple[int, int], ...]
    improvement: float


def _synthesis_worker_eval(engine: "SynthesisEngine", task):
    """Evaluate one (position, faults) candidate in a worker.

    ``engine`` is the worker's ``jobs=1`` engine for the application
    (its :class:`~repro.runtime.engine.parallel.WorkerContext` state).
    Returns a picklable reduction of :class:`_CandidateResult` (the
    tail's entries; the parent rebuilds the schedule from its own
    context) or ``None`` for non-admissible candidates.
    """
    (
        spec,
        position,
        switch_process,
        faults,
        start,
        hi,
        prefix_completed,
        parent_signature,
    ) = task
    schedule = engine._schedule_from_spec(spec)
    candidate = engine._evaluate(
        schedule,
        position,
        switch_process,
        faults,
        start,
        hi,
        prefix_completed,
        parent_signature,
    )
    if candidate is None:
        return None
    return (
        tuple(candidate.tail.entries),
        candidate.intervals,
        candidate.improvement,
    )


class SynthesisEngine:
    """The fast FTQS tree builder (see the module docstring).

    One engine instance holds the compiled tables, memos and (for
    ``jobs > 1``) the persistent worker pool; ``build()`` may be called
    repeatedly — e.g. once per M of a Table 1 sweep — and later builds
    reuse every memoized tail.  Use as a context manager (or call
    :meth:`close`) when ``jobs > 1`` so the pool is released
    deterministically.

    ``pool`` may be a :class:`~repro.runtime.engine.parallel.TaskPool`
    borrowed from a :class:`repro.pipeline.resources.ResourceManager`,
    so one pool spawned once serves every application of an
    experiment sweep; without one the engine spawns its own on first
    use.  Either way the workers receive the (app, config) context
    once each; :meth:`close` terminates only a pool the engine
    spawned.
    """

    def __init__(
        self,
        app,
        config: FTQSConfig = DEFAULT_FTQS_CONFIG,
        jobs: int = 1,
        stats: Optional[SynthesisStats] = None,
        pool=None,
    ):
        self.app = app
        self.config = config
        self.jobs = max(1, int(jobs))
        self.ctx = _Ctx(app, config)
        self.stats = stats if stats is not None else SynthesisStats()
        self._tail_memo: Dict[Tuple, Optional[FSchedule]] = {}
        self._profile_cache: Dict[Tuple[int, int], TailProfile] = {}
        self._spec_cache: Dict[Tuple, FSchedule] = {}
        self._borrowed_pool = pool
        self._pool = pool
        self._context = None
        self._finalizer = None
        self._best_similarity: Dict[int, float] = {}
        self._expected_utility: Dict[int, float] = {}
        self._signatures: Set[Tuple] = set()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        from repro.runtime.engine.parallel import TaskPool, WorkerContext

        if self._pool is None:
            self._pool = TaskPool(self.jobs)
            self._finalizer = weakref.finalize(
                self, TaskPool.close, self._pool
            )
        if self._context is None:
            self._context = WorkerContext.of(
                SynthesisEngine, self.app, self.config
            )
        return self._pool

    def close(self) -> None:
        """Terminate the candidate worker pool (no-op when jobs == 1
        or when the pool is borrowed from a resource manager)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = self._borrowed_pool
        self._context = None

    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Memoized tail scheduling
    # ------------------------------------------------------------------
    def _tail(
        self,
        fault_budget: int,
        start: int,
        prior_completed: FrozenSet[str],
        prior_dropped: FrozenSet[str],
    ) -> Optional[FSchedule]:
        key = (fault_budget, start, prior_completed, prior_dropped)
        if key in self._tail_memo:
            self.stats.memo_hits += 1
            return self._tail_memo[key]
        self.stats.tails_scheduled += 1
        if not self.config.ftss.fast_paths:
            # The reference slow probes differ from the fast ones in
            # second-order greedy effects; honour the ablation by
            # delegating (memoization still applies).
            tail = ftss(
                self.app,
                fault_budget=fault_budget,
                start_time=start,
                prior_completed=prior_completed,
                prior_dropped=prior_dropped,
                config=self.config.ftss,
            )
        else:
            tail = _TailRun(
                self.ctx, fault_budget, start, prior_completed, prior_dropped
            ).run()
        self._tail_memo[key] = tail
        return tail

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def _profile(self, schedule: FSchedule, from_position: int) -> TailProfile:
        """Clone of :func:`repro.quasistatic.intervals.tail_profile`
        with memoized stale coefficients, cached by schedule value.

        The profile reads only the entry list, the dropped sets derived
        from it and the priors — not the start time — so the key is the
        value identity of those inputs (an ``id()``-based key could be
        recycled across builds of a persistent engine)."""
        key = (
            schedule.signature(),
            schedule.prior_completed,
            schedule.prior_dropped,
            from_position,
        )
        hit = self._profile_cache.get(key)
        if hit is not None:
            return hit
        ctx = self.ctx
        alphas = ctx.alphas(frozenset(schedule.all_dropped))
        terms = []
        mean = 0.0
        variance = 0.0
        lo_sum = 0
        hi_sum = 0
        count = 0
        for entry in schedule.entries[from_position:]:
            name = entry.name
            mean += ctx.aet[name]
            span = ctx.wcet[name] - ctx.bcet[name]
            variance += (span * span) / 12.0
            lo_sum += ctx.bcet[name]
            hi_sum += ctx.wcet[name]
            count += 1
            if name in ctx.soft_set:
                terms.append(
                    TailTerm(
                        alpha=alphas[name],
                        fn=self.app.process(name).utility,
                        mean=mean,
                        variance=variance,
                        lo_sum=lo_sum,
                        hi_sum=hi_sum,
                        count=count,
                    )
                )
        profile = TailProfile(terms=tuple(terms), period=ctx.period)
        self._profile_cache[key] = profile
        return profile

    def _partition(
        self,
        parent: FSchedule,
        parent_position: int,
        child: FSchedule,
        lo: int,
        hi: int,
    ) -> PartitionResult:
        """Clone of :func:`repro.quasistatic.intervals.partition` with
        the closed-form safety bound and batched expectations."""
        stride = self.config.interval_stride
        if lo > hi:
            return PartitionResult(intervals=(), improvement=0.0)
        trace_span = hi - lo + 1
        safe_hi = fast_latest_safe_start(child, lo, hi, self.ctx)
        if safe_hi is None:
            return PartitionResult(intervals=(), improvement=0.0)
        hi = min(hi, safe_hi)
        if lo > hi:
            return PartitionResult(intervals=(), improvement=0.0)
        parent_profile = self._profile(parent, parent_position + 1)
        child_profile = self._profile(child, 0)
        points = sorted(
            set(parent_profile.critical_points(lo, hi, stride))
            | set(child_profile.critical_points(lo, hi, stride))
        )
        gains = expected_batch(child_profile, points) - expected_batch(
            parent_profile, points
        )
        margin = 1e-6
        intervals: List[Tuple[int, int]] = []
        gain_integral = 0.0
        current_start: Optional[int] = None
        n_points = len(points)
        for idx, point in enumerate(points):
            gain = gains[idx]
            seg_end = points[idx + 1] - 1 if idx + 1 < n_points else hi
            wins = gain > margin
            if wins:
                gain_integral += gain * (seg_end - point + 1)
            if wins and current_start is None:
                current_start = point
            if not wins and current_start is not None:
                intervals.append((current_start, point - 1))
                current_start = None
            if wins and idx + 1 == n_points:
                intervals.append((current_start, seg_end))
                current_start = None
        valid = tuple((a, b) for a, b in intervals if a <= b)
        return PartitionResult(
            intervals=valid,
            improvement=float(gain_integral) / trace_span,
        )

    def _evaluate(
        self,
        schedule: FSchedule,
        position: int,
        switch_process: str,
        faults: int,
        start: int,
        hi: int,
        prefix_completed: FrozenSet[str],
        parent_signature: Tuple,
    ) -> Optional[_CandidateResult]:
        """Tail + partition of one (position, faults) candidate."""
        config = self.config
        self.stats.candidates_evaluated += 1
        tail = self._tail(
            schedule.fault_budget - faults,
            start,
            prefix_completed,
            frozenset(schedule.prior_dropped),
        )
        if tail is None or len(tail) == 0:
            return None
        if faults == 0 and tail.signature() == parent_signature:
            return None
        if config.use_interval_partitioning:
            result = self._partition(schedule, position, tail, start, hi)
        else:
            safe_hi = fast_latest_safe_start(tail, start, hi, self.ctx)
            if safe_hi is None:
                return None
            result = PartitionResult(
                intervals=((start, safe_hi),), improvement=1.0
            )
        if not result.beneficial:
            return None
        return _CandidateResult(
            position=position,
            assumed_faults=faults,
            switch_process=switch_process,
            tail=tail,
            intervals=result.intervals,
            improvement=result.improvement,
        )

    # ------------------------------------------------------------------
    # Per-node candidate generation
    # ------------------------------------------------------------------
    def _node_prefix_data(self, schedule: FSchedule):
        """Cumulative best/worst-case data per position, computed once
        per node instead of O(n) per candidate."""
        ctx = self.ctx
        app = self.app
        k = app.k
        entries = schedule.entries
        best_clock = sum(ctx.bcet[n] for n in schedule.prior_completed)
        worst_clock = sum(ctx.wcet[n] for n in schedule.prior_completed)
        top = TopNeeds(k)
        for n in schedule.prior_completed:
            top.add(ctx.need[n], k)
        prefix_best: List[int] = []
        worst_completion: List[int] = []
        prefix_sets: List[FrozenSet[str]] = []
        done = set(schedule.prior_completed)
        for entry in entries:
            prefix_best.append(best_clock)
            best_clock += ctx.bcet[entry.name]
            worst_clock += ctx.wcet[entry.name]
            cap = (
                entry.reexecutions if entry.name in ctx.soft_set else k
            )
            if cap > 0:
                top.add(ctx.need[entry.name], cap)
            worst_completion.append(
                min(worst_clock + top.demand(), ctx.period)
            )
            done.add(entry.name)
            prefix_sets.append(frozenset(done))
        return prefix_best, worst_completion, prefix_sets

    def _schedule_spec(self, schedule: FSchedule) -> Tuple:
        return (
            schedule.entries,
            schedule.start_time,
            schedule.fault_budget,
            tuple(sorted(schedule.prior_completed)),
            tuple(sorted(schedule.prior_dropped)),
            schedule.slack_sharing,
        )

    def _schedule_from_spec(self, spec: Tuple) -> FSchedule:
        hit = self._spec_cache.get(spec)
        if hit is None:
            entries, start, budget, completed, dropped, sharing = spec
            hit = FSchedule(
                self.app,
                list(entries),
                start_time=start,
                fault_budget=budget,
                prior_completed=completed,
                prior_dropped=dropped,
                slack_sharing=sharing,
            )
            self._spec_cache[spec] = hit
        return hit

    def _candidates(self, node: QSNode) -> List[_CandidateResult]:
        ctx = self.ctx
        config = self.config
        schedule = node.schedule
        entries = schedule.entries
        budget = schedule.fault_budget
        if len(entries) < 2:
            return []
        prefix_best, worst_completion, prefix_sets = self._node_prefix_data(
            schedule
        )
        jobs_plan: List[Tuple] = []
        for position in range(len(entries) - 1):
            entry = entries[position]
            fault_range = [0]
            if config.fault_children and budget > 0:
                max_f = min(
                    entry.reexecutions, budget, config.max_fault_variants
                )
                fault_range += list(range(1, max_f + 1))
            hi = worst_completion[position]
            parent_signature = tuple(
                (e.name, e.reexecutions) for e in entries[position + 1 :]
            )
            for faults in fault_range:
                start = (
                    prefix_best[position]
                    + (faults + 1) * ctx.bcet[entry.name]
                    + faults * ctx.mu[entry.name]
                )
                if start > hi:
                    continue
                jobs_plan.append(
                    (
                        position,
                        entry.name,
                        faults,
                        start,
                        hi,
                        prefix_sets[position],
                        parent_signature,
                    )
                )

        results: List[_CandidateResult] = []
        if self.jobs > 1 and len(jobs_plan) > 1:
            spec = self._schedule_spec(schedule)
            tasks = [
                (spec, position, name, faults, start, hi, prefix, signature)
                for position, name, faults, start, hi, prefix, signature
                in jobs_plan
            ]
            self.stats.candidates_evaluated += len(tasks)
            pool = self._ensure_pool()
            raw = pool.map(_synthesis_worker_eval, tasks, self._context)
            prior_dropped = frozenset(schedule.prior_dropped)
            for item, outcome in zip(jobs_plan, raw):
                if outcome is None:
                    continue
                position, name, faults, start, hi, prefix, _ = item
                tail_entries, intervals, improvement = outcome
                tail = FSchedule(
                    self.app,
                    list(tail_entries),
                    start_time=start,
                    fault_budget=budget - faults,
                    prior_completed=prefix,
                    prior_dropped=prior_dropped,
                    slack_sharing=config.ftss.slack_sharing,
                )
                results.append(
                    _CandidateResult(
                        position=position,
                        assumed_faults=faults,
                        switch_process=name,
                        tail=tail,
                        intervals=intervals,
                        improvement=improvement,
                    )
                )
        else:
            for position, name, faults, start, hi, prefix, sig in jobs_plan:
                candidate = self._evaluate(
                    schedule, position, name, faults, start, hi, prefix, sig
                )
                if candidate is not None:
                    results.append(candidate)
        return results

    # ------------------------------------------------------------------
    # Tree growth
    # ------------------------------------------------------------------
    def _register(self, tree: QSTree, node: QSNode) -> None:
        """Incremental similarity bookkeeping on node insertion.

        Updates the running per-node maxima on both sides, so a later
        ``similarity_to_tree`` query is a dict lookup; max over the
        same float set as the reference's full scan, hence identical.
        """
        best = 0.0
        for other in tree:
            if other.node_id == node.node_id:
                continue
            value = schedule_similarity(node.schedule, other.schedule)
            if value > best:
                best = value
            if value > self._best_similarity.get(other.node_id, 0.0):
                self._best_similarity[other.node_id] = value
        self._best_similarity[node.node_id] = best

    def _expected(self, node: QSNode) -> float:
        hit = self._expected_utility.get(node.node_id)
        if hit is None:
            hit = node.schedule.expected_utility()
            self._expected_utility[node.node_id] = hit
        return hit

    def _pick_expansion(self, tree: QSTree, layer: int) -> Optional[QSNode]:
        candidates = [
            n for n in tree if n.layer == layer and not n.expanded
        ]
        if not candidates:
            return None

        def key(node: QSNode):
            return (
                -self._best_similarity[node.node_id],
                -self._expected(node),
                node.node_id,
            )

        return min(candidates, key=key)

    def _expand(self, tree: QSTree, node: QSNode, layer: int) -> None:
        node.expanded = True
        self.stats.nodes_expanded += 1
        candidates = self._candidates(node)
        candidates.sort(
            key=lambda c: (-c.improvement, c.position, c.assumed_faults)
        )
        app_k = self.app.k
        for candidate in candidates:
            if len(self._signatures) >= self.config.max_schedules:
                break
            child = tree.add_child(
                node.node_id,
                candidate.tail,
                switch_process=candidate.switch_process,
                assumed_faults=candidate.assumed_faults,
                layer=layer,
            )
            self._signatures.add(candidate.tail.signature())
            required = app_k - candidate.tail.fault_budget
            for lo, hi in candidate.intervals:
                tree.add_arc(
                    node.node_id,
                    SwitchArc(
                        process=candidate.switch_process,
                        lo=lo,
                        hi=hi,
                        required_faults=required,
                        target=child.node_id,
                    ),
                )
            self._register(tree, child)

    def build(self, root_schedule: FSchedule) -> QSTree:
        """Grow the quasi-static tree Φ — fast twin of
        :func:`repro.quasistatic.ftqs.ftqs`."""
        started = time.perf_counter()
        config = self.config
        self._best_similarity = {}
        self._expected_utility = {}
        self._signatures = {root_schedule.signature()}
        tree = QSTree(root_schedule)
        self._best_similarity[tree.root_id] = 0.0
        try:
            if config.max_schedules == 1 or len(root_schedule) <= 1:
                return tree
            max_layer = len(self.app.graph.process_names)
            self._expand(tree, tree.root, 1)
            layer = 1
            while len(self._signatures) < config.max_schedules:
                candidate = self._pick_expansion(tree, layer)
                if candidate is None:
                    layer += 1
                    if layer > max_layer:
                        break
                    if not any(not n.expanded for n in tree):
                        break
                    continue
                self._expand(tree, candidate, layer + 1)
            tree.prune_unreachable()
            tree.validate()
            return tree
        finally:
            self.stats.trees_built += 1
            self.stats.wall_seconds += time.perf_counter() - started


def ftqs_fast(
    app,
    root_schedule: FSchedule,
    config: FTQSConfig = DEFAULT_FTQS_CONFIG,
    jobs: int = 1,
    stats: Optional[SynthesisStats] = None,
    pool=None,
) -> QSTree:
    """Build the quasi-static tree with the fast synthesis engine.

    Byte-identical to :func:`repro.quasistatic.ftqs.ftqs` with
    ``synthesis="reference"`` for any ``jobs`` count.  ``pool`` may be
    a shared :class:`~repro.runtime.engine.parallel.TaskPool` (see
    :class:`repro.pipeline.resources.ResourceManager`); it is
    borrowed, not closed.
    """
    with SynthesisEngine(
        app, config, jobs=jobs, stats=stats, pool=pool
    ) as engine:
        return engine.build(root_schedule)
