"""Incremental feasibility oracle — the fast path of FTSS.

``GetSchedulable`` (paper §5.2, line 4) probes, for every ready
process, whether "prefix + candidate + all remaining hard processes"
meets the hard deadlines in the worst fault scenario.  Building a full
:class:`~repro.scheduling.fschedule.FSchedule` for every probe is
O(n²) per FTSS iteration; this oracle maintains the prefix state
incrementally and answers each probe in O(#remaining hard) with tiny
constants, which matters because FTQS runs FTSS once per tree node.

The oracle is an exact re-implementation of the slow path — the test
suite cross-checks the two on randomized inputs (see
``tests/test_feasibility.py``).

Key facts exploited:

* worst-case completions are ``start + Σ WCET + demand`` where the
  shared-slack ``demand`` only ever involves the (at most k, since
  every cap is >= 1) most expensive recoverable processes so far —
  so the prefix's recovery state compresses to a tiny top-list;
* the deadline-ordered (EDF), precedence-respecting order of the hard
  processes never has to be recomputed: any subsequence of a valid
  order is valid for the remaining set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model.application import Application
from repro.scheduling.schedulability import edf_hard_order


class TopNeeds:
    """The compressed recovery-demand state of a schedule prefix.

    Stores the highest recovery costs (with re-execution caps) seen so
    far, truncated once the cumulative caps reach the fault budget —
    cheaper entries can never participate in the worst case.
    """

    __slots__ = ("budget", "_items")

    def __init__(self, budget: int, items: Optional[List[Tuple[int, int]]] = None):
        self.budget = budget
        self._items: List[Tuple[int, int]] = items if items is not None else []

    def copy(self) -> "TopNeeds":
        return TopNeeds(self.budget, list(self._items))

    def add(self, cost: int, cap: int) -> None:
        """Insert a recoverable process (cost = WCET + µ, cap >= 1)."""
        if cap <= 0 or self.budget == 0:
            return
        items = self._items
        index = 0
        while index < len(items) and items[index][0] >= cost:
            index += 1
        items.insert(index, (cost, min(cap, self.budget)))
        # Truncate entries beyond the budget's reach.
        total = 0
        for keep, (_, item_cap) in enumerate(items):
            total += item_cap
            if total >= self.budget:
                del items[keep + 1 :]
                break

    def demand(self, extra: Optional[Tuple[int, int]] = None) -> int:
        """Worst-case recovery demand, optionally with one more entry.

        Equivalent to
        :func:`repro.scheduling.fschedule.shared_recovery_demand` over
        the stored items (plus ``extra``).
        """
        remaining = self.budget
        total = 0
        extra_cost, extra_cap = extra if extra is not None else (-1, 0)
        extra_cap = min(extra_cap, self.budget)
        for cost, cap in self._items:
            if remaining <= 0:
                return total
            if extra_cap > 0 and extra_cost >= cost:
                take = min(extra_cap, remaining)
                total += take * extra_cost
                remaining -= take
                extra_cap = 0
                if remaining <= 0:
                    return total
            take = min(cap, remaining)
            total += take * cost
            remaining -= take
        if extra_cap > 0 and remaining > 0:
            take = min(extra_cap, remaining)
            total += take * extra_cost
        return total


def latest_start(
    entries: Iterable[Tuple[int, int, int, Optional[int]]],
    budget: int,
    slack_sharing: bool,
    period: int,
) -> int:
    """Latest start time at which a run of entries stays schedulable.

    ``entries`` are ``(WCET, recovery cost, re-execution cap, hard
    deadline or None)`` in schedule order, with ``budget`` faults to
    tolerate.  Every worst-case completion of
    :meth:`~repro.scheduling.fschedule.FSchedule.worst_case_completions`
    is ``start + const_i``, so the run meets every hard deadline and
    the period exactly for ``start <= min(deadline_i - const_i,
    period - const_last)``, which is returned.
    """
    clock = 0
    total = 0
    top = TopNeeds(budget)
    private = 0
    slacks = []
    for wcet, need, cap, deadline in entries:
        clock += wcet
        if cap > 0:
            if slack_sharing:
                top.add(need, cap)
            else:
                private += need * min(cap, budget)
        total = clock + (top.demand() if slack_sharing else private)
        if deadline is not None:
            slacks.append(deadline - total)
    slacks.append(period - total)
    return min(slacks)


class FeasibilityOracle:
    """Incremental S_iH feasibility probes for one FTSS run.

    The caller notifies the oracle of every scheduled process
    (:meth:`on_schedule`); :meth:`check` then answers whether a
    candidate (with a given re-execution allotment) keeps the schedule
    feasible.  ``slack_sharing=False`` switches the demand model to
    private per-process slacks (the ablation configuration).
    """

    def __init__(
        self,
        app: Application,
        fault_budget: int,
        start_time: int = 0,
        prior_completed: Sequence[str] = (),
        slack_sharing: bool = True,
    ):
        self.app = app
        self.budget = fault_budget
        self.slack_sharing = slack_sharing
        self._prefix_wcet = 0
        self._start = start_time
        self._top = TopNeeds(fault_budget)
        self._private_demand = 0
        self._prefix_infeasible = False
        done = set(prior_completed)
        hard_remaining = [p.name for p in app.hard if p.name not in done]
        self._hard_order: List[str] = edf_hard_order(app, hard_remaining, done)
        self._hard_scheduled: set = set()
        self._wcet: Dict[str, int] = {p.name: p.wcet for p in app.processes}
        self._deadline: Dict[str, Optional[int]] = {
            p.name: p.deadline for p in app.processes
        }
        self._need: Dict[str, int] = {
            p.name: app.recovery_need(p.name) for p in app.processes
        }

    # ------------------------------------------------------------------
    # State updates
    # ------------------------------------------------------------------
    def on_schedule(self, name: str, reexecutions: int) -> None:
        """Record that ``name`` was appended to the prefix.

        Also tracks whether the prefix itself already violates a hard
        deadline — FTSS never builds such a prefix (every appended
        process passed a probe), but external callers may, and every
        subsequent probe must then answer "infeasible".
        """
        self._prefix_wcet += self._wcet[name]
        if reexecutions > 0:
            if self.slack_sharing:
                self._top.add(self._need[name], reexecutions)
            else:
                self._private_demand += self._need[name] * min(
                    reexecutions, self.budget
                )
        if self.app.process(name).is_hard:
            self._hard_scheduled.add(name)
            demand = (
                self._top.demand()
                if self.slack_sharing
                else self._private_demand
            )
            completion = self._start + self._prefix_wcet + demand
            if completion > self._deadline[name]:
                self._prefix_infeasible = True

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def check(self, candidate: str, reexecutions: Optional[int] = None) -> bool:
        """True when prefix + candidate + remaining hard is feasible.

        ``reexecutions`` defaults to the fault budget for hard
        candidates and 0 for soft ones (FTSS's slack-assignment step
        passes explicit values when probing soft re-executions).
        """
        app = self.app
        if self._prefix_infeasible:
            return False
        proc = app.process(candidate)
        if reexecutions is None:
            reexecutions = self.budget if proc.is_hard else 0

        clock = self._start + self._prefix_wcet + self._wcet[candidate]
        if self.slack_sharing:
            extra = (
                (self._need[candidate], reexecutions)
                if reexecutions > 0
                else None
            )
            demand = self._top.demand(extra)
        else:
            demand = self._private_demand + self._need[candidate] * min(
                reexecutions, self.budget
            )
        if proc.is_hard and clock + demand > self._deadline[candidate]:
            return False

        if self.slack_sharing:
            top = self._top.copy()
            if reexecutions > 0:
                top.add(self._need[candidate], reexecutions)
        for name in self._hard_order:
            if name == candidate or name in self._hard_scheduled:
                continue
            clock += self._wcet[name]
            if self.slack_sharing:
                top.add(self._need[name], self.budget)
                demand = top.demand()
            else:
                demand += self._need[name] * self.budget
            if clock + demand > self._deadline[name]:
                return False
        return clock + demand <= app.period

    def schedulable_subset(self, candidates: Sequence[str]) -> List[str]:
        """``GetSchedulable`` over a ready list."""
        return [name for name in candidates if self.check(name)]

    def extended(self, name: str, reexecutions: int) -> "FeasibilityOracle":
        """A copy of the oracle with ``name`` appended to the prefix.

        Used to probe second-order effects of a decision — e.g. whether
        granting a soft re-execution (which reserves shared slack)
        would push *other* soft processes out of schedulability.
        """
        clone = FeasibilityOracle.__new__(FeasibilityOracle)
        clone.app = self.app
        clone.budget = self.budget
        clone.slack_sharing = self.slack_sharing
        clone._prefix_wcet = self._prefix_wcet
        clone._start = self._start
        clone._top = self._top.copy()
        clone._private_demand = self._private_demand
        clone._prefix_infeasible = self._prefix_infeasible
        clone._hard_order = self._hard_order
        clone._hard_scheduled = set(self._hard_scheduled)
        clone._wcet = self._wcet
        clone._deadline = self._deadline
        clone._need = self._need
        clone.on_schedule(name, reexecutions)
        return clone
