"""Interval partitioning (paper §5.1, FTQS line 10).

After the tree's sub-schedules exist, we must decide *when* the online
scheduler should switch from a parent schedule SS_P to a sub-schedule
SS_i hanging off the completion of process P_i.  The paper traces all
(integer) completion times of P_i between the best-possible and the
worst-possible and compares the utility the two schedules would
produce; switching makes sense where SS_i wins, and is allowed only up
to the latest completion time t_ic at which SS_i still guarantees the
hard deadlines.

For the piecewise-constant utility functions the paper uses, the
average-case utility of both tails only changes value at a bounded set
of *critical points* (utility breakpoints shifted by each process's
mean offset in the tail, plus period-overrun points).  The expected
utility the comparison uses is smooth in the switch time, so every
profile also adds a uniform grid of switch times (stride
``FTQSConfig.interval_stride``, or a 48th of the traced range) — the
grid, not the breakpoints, is what locates sign changes between them.
The difference is evaluated once per point and held over the segment
up to the next one, far cheaper than evaluating every integer tick.

The safety bound t_ic is found by bisection: the rebased sub-schedule's
worst-case analysis is monotone in its start time, so feasibility flips
exactly once.  This module is the oracle: the FTQS engine runs the
same partition in one ``rk_partition`` call of the C core, with t_ic
in closed form (:mod:`repro.quasistatic.synthesis`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.model.application import Application
from repro.scheduling.fschedule import FSchedule
from repro.utility.stale import stale_coefficients


@dataclass(frozen=True)
class TailTerm:
    """One soft process of a schedule tail, as seen from the switch.

    Starting the tail at ``tc`` completes the process at ``tc + S``
    where ``S`` is the sum of the (random) execution times of the tail
    processes up to and including it.  The term records the mean and
    variance of ``S`` (execution times are independent uniforms on
    [BCET, WCET], the paper's §6 distribution) plus the bounds needed
    for the single-process exact case.
    """

    alpha: float
    fn: object
    mean: float
    variance: float
    lo_sum: int
    hi_sum: int
    count: int


def _survival(term: TailTerm, x: float) -> float:
    """P(S > x) under the tail-sum distribution of ``term``.

    Exact for a single uniform process; a normal (CLT) approximation
    for sums of two or more.  Degenerate (zero-variance) sums fall
    back to a step function.
    """
    if x < term.lo_sum:
        return 1.0
    if x >= term.hi_sum:
        return 0.0
    if term.count == 1 or term.variance <= 0:
        span = term.hi_sum - term.lo_sum
        if span <= 0:
            return 0.0
        return min(1.0, max(0.0, (term.hi_sum - x) / span))
    z = (x - term.mean) / math.sqrt(term.variance)
    return 0.5 * (1.0 - math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class TailProfile:
    """Precomputed utility profile of a schedule tail.

    Exposes two evaluations at a switch time ``tc``:

    * :meth:`utility` — the deterministic average-case value (every
      process at its AET), the quantity FTSS optimizes;
    * :meth:`expected` — the expectation over the execution-time
      distribution, which is what actually materializes when the online
      scheduler commits to this tail at ``tc``.  Interval partitioning
      compares expectations: a point comparison at the AET can favour a
      tail whose utility breakpoint sits just beyond the average
      completion even though half the probability mass falls past it.
    """

    terms: Tuple[TailTerm, ...]
    period: int

    def utility(self, tc: int) -> float:
        """Average-case (point) utility of starting the tail at ``tc``."""
        total = 0.0
        for term in self.terms:
            t = tc + int(round(term.mean))
            if t > self.period or t < 0:
                continue
            total += term.alpha * term.fn.value_at(t)
        return total

    def expected(self, tc: int) -> float:
        """Expected utility of starting the tail at ``tc``.

        For piecewise-constant utility functions the expectation is
        computed exactly (given the survival-function model of the tail
        sums): Σ v_i · P(completion in segment i), with the period
        cutoff as a final zero-value segment.  Other functions are
        approximated by averaging over five distribution quantiles.
        """
        total = 0.0
        for term in self.terms:
            if term.fn.is_piecewise_constant():
                total += term.alpha * self._expected_piecewise(term, tc)
            else:
                total += term.alpha * self._expected_quantiles(term, tc)
        return total

    def _expected_piecewise(self, term: TailTerm, tc: int) -> float:
        # Segment boundaries (absolute completion times): the function
        # holds its value up to and including each breakpoint; beyond
        # the period everything is worth zero.
        boundaries = [b for b in term.fn.breakpoints() if b < self.period]
        boundaries.append(self.period)
        expected = 0.0
        prev_survival = 1.0
        prev_bound = None
        for bound in boundaries:
            survival = _survival(term, bound - tc)
            mass = prev_survival - survival
            if mass > 0:
                # Value on (prev_bound, bound]: sample just above the
                # previous boundary (value_at is right-continuous in
                # our step convention).
                probe = bound if prev_bound is None else prev_bound + 1
                expected += mass * term.fn.value_at(max(0, probe))
            prev_survival = survival
            prev_bound = bound
        # Beyond the period the value is zero - nothing to add.
        return expected

    def _expected_quantiles(self, term: TailTerm, tc: int) -> float:
        sigma = math.sqrt(max(term.variance, 0.0))
        expected = 0.0
        for z in (-1.2816, -0.5244, 0.0, 0.5244, 1.2816):
            s = term.mean + z * sigma
            s = min(max(s, term.lo_sum), term.hi_sum)
            t = tc + s
            value = 0.0 if t > self.period or t < 0 else term.fn.value_at(int(t))
            expected += value / 5.0
        return expected

    def critical_points(self, lo: int, hi: int, stride: int = 0) -> List[int]:
        """Sample points in [lo, hi] for the win/lose comparison.

        Includes ``lo``, the AET-shifted utility breakpoints and period
        overrun points (where the average-case value changes), plus a
        uniform grid — the expectation is smooth in ``tc``, so sign
        changes need grid coverage, not just breakpoints.
        """
        points = {lo, hi}
        for term in self.terms:
            offset = int(round(term.mean))
            if term.fn.is_piecewise_constant():
                for bp in term.fn.breakpoints():
                    candidate = bp - offset + 1
                    if lo <= candidate <= hi:
                        points.add(candidate)
            overrun = self.period - offset + 1
            if lo <= overrun <= hi:
                points.add(overrun)
        step = stride if stride > 0 else max(1, (hi - lo) // 48)
        points.update(range(lo, hi + 1, step))
        return sorted(points)


def tail_profile(
    app: Application, schedule: FSchedule, from_position: int = 0
) -> TailProfile:
    """Utility profile of ``schedule`` from entry ``from_position`` on.

    Accumulates the mean/variance of the completion-time sums; the α
    coefficients use the schedule's full dropping decision (prior and
    local), which does not depend on the start time.
    """
    alphas = stale_coefficients(app.graph, schedule.all_dropped)
    terms = []
    mean = 0.0
    variance = 0.0
    lo_sum = 0
    hi_sum = 0
    count = 0
    for entry in schedule.entries[from_position:]:
        proc = app.process(entry.name)
        mean += proc.aet
        span = proc.wcet - proc.bcet
        variance += (span * span) / 12.0
        lo_sum += proc.bcet
        hi_sum += proc.wcet
        count += 1
        if proc.is_soft:
            terms.append(
                TailTerm(
                    alpha=alphas[entry.name],
                    fn=proc.utility,
                    mean=mean,
                    variance=variance,
                    lo_sum=lo_sum,
                    hi_sum=hi_sum,
                    count=count,
                )
            )
    return TailProfile(terms=tuple(terms), period=app.period)


def rebased(schedule: FSchedule, start_time: int) -> FSchedule:
    """Copy of ``schedule`` starting at ``start_time`` (same decisions)."""
    return FSchedule(
        schedule.app,
        schedule.entries,
        start_time=start_time,
        fault_budget=schedule.fault_budget,
        prior_completed=schedule.prior_completed,
        prior_dropped=schedule.prior_dropped,
        slack_sharing=schedule.slack_sharing,
    )


def latest_safe_start(
    schedule: FSchedule, lo: int, hi: int
) -> Optional[int]:
    """Largest start time in [lo, hi] keeping ``schedule`` schedulable.

    ``None`` when the schedule is infeasible even when started at
    ``lo``.  Bisection is valid because every worst-case completion is
    ``start + constant``, so feasibility is monotone in the start time.
    """
    if not rebased(schedule, lo).is_schedulable():
        return None
    if rebased(schedule, hi).is_schedulable():
        return hi
    low, high = lo, hi  # invariant: low feasible, high infeasible
    while high - low > 1:
        mid = (low + high) // 2
        if rebased(schedule, mid).is_schedulable():
            low = mid
        else:
            high = mid
    return low


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of interval partitioning for one (parent, child) pair.

    ``intervals`` are the maximal inclusive completion-time windows
    where switching wins; ``improvement`` is the expected utility gain
    of having the switch available, assuming the completion time is
    uniform over the traced range — the quantity FTQS ranks children
    by ("the most significant improvement", paper §5.1).
    """

    intervals: Tuple[Tuple[int, int], ...]
    improvement: float

    @property
    def beneficial(self) -> bool:
        return bool(self.intervals) and self.improvement > 0


def partition(
    app: Application,
    parent: FSchedule,
    parent_position: int,
    child: FSchedule,
    lo: int,
    hi: int,
    stride: int = 0,
) -> PartitionResult:
    """Interval partitioning of one switch candidate (paper §5.1).

    Compares the expected utility of continuing ``parent`` after
    ``parent_position`` against starting ``child``, for completion
    times ``tc`` in ``[lo, hi]``; both tails cover the same remaining
    process set, so their utilities are directly comparable.  The
    returned windows carry a strictly positive gain and are clipped to
    the child's safety bound t_ic; the improvement score integrates
    the gain over the *traced* range (not just the winning windows),
    so a child that wins hugely on a sliver scores like one that wins
    slightly everywhere — matching an expected-utility view under a
    uniform completion-time prior.
    """
    if lo > hi:
        return PartitionResult(intervals=(), improvement=0.0)
    trace_span = hi - lo + 1
    safe_hi = latest_safe_start(child, lo, hi)
    if safe_hi is None:
        return PartitionResult(intervals=(), improvement=0.0)
    hi = min(hi, safe_hi)
    if lo > hi:
        return PartitionResult(intervals=(), improvement=0.0)
    parent_profile = tail_profile(app, parent, parent_position + 1)
    child_profile = tail_profile(app, child)
    points = sorted(
        set(parent_profile.critical_points(lo, hi, stride))
        | set(child_profile.critical_points(lo, hi, stride))
    )
    # Switching is worthwhile only when the child's *expected* utility
    # beats the parent's by a real margin: expectations are computed
    # under an approximate distribution model, so a hair-thin edge is
    # more likely model error than a genuine win (and each arc taken
    # costs a (cheap) runtime switch).
    margin = 1e-6
    intervals: List[Tuple[int, int]] = []
    gain_integral = 0.0
    current_start: Optional[int] = None
    for idx, point in enumerate(points):
        gain = child_profile.expected(point) - parent_profile.expected(point)
        seg_end = points[idx + 1] - 1 if idx + 1 < len(points) else hi
        wins = gain > margin
        if wins:
            gain_integral += gain * (seg_end - point + 1)
        if wins and current_start is None:
            current_start = point
        if not wins and current_start is not None:
            intervals.append((current_start, point - 1))
            current_start = None
        if wins and idx + 1 == len(points):
            intervals.append((current_start, seg_end))
            current_start = None
    valid = tuple((a, b) for a, b in intervals if a <= b)
    return PartitionResult(
        intervals=valid,
        improvement=gain_integral / trace_span,
    )

