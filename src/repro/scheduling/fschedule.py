"""Fault-tolerant schedules with shared recovery slack (paper §3).

An *f-schedule* is an ordered list of processes on the single
computation node, where each process carries an allotment of
re-executions (k for hard processes; 0..k for soft ones, decided by
the FTSS heuristic).  Recovery time is **not** reserved per process:
following [7], processes scheduled in sequence share one recovery
slack, because at most ``k`` faults can occur in total.  The worst-case
delay that recoveries can add before some position in the schedule is
therefore the solution of a small knapsack-like maximization: assign
the ``k`` faults to the already-started processes so that the total
recovery cost Σ (WCET + µ) is maximal, respecting each process's
re-execution cap.  With the caps all ≥ the remaining faults this
reduces to ``k × max(WCET_j + µ_j)``, the formula quoted in §3.

:class:`FSchedule` is immutable after construction and provides the
two analyses every heuristic needs:

* worst-case completion times (WCET + shared recovery demand) for the
  hard-deadline guarantee, and
* expected completion times and overall utility under average-case
  execution times for optimization (§5.2: "an f-schedule generated for
  worst-case execution times, while the utility is maximized for
  average execution times").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.model.application import Application
from repro.utility.stale import stale_coefficients


@dataclass(frozen=True)
class ScheduledEntry:
    """One slot of an f-schedule: a process and its re-execution cap."""

    name: str
    reexecutions: int

    def __post_init__(self) -> None:
        if self.reexecutions < 0:
            raise SchedulingError(
                f"{self.name}: re-execution cap must be non-negative"
            )


def shared_recovery_demand(
    needs: Sequence[Tuple[int, int]],
    faults: int,
) -> int:
    """Worst-case total recovery time for ``faults`` faults.

    ``needs`` lists ``(recovery_cost, cap)`` pairs for the processes
    that may recover (cost = WCET + µ of one re-execution, cap = the
    allotted number of re-executions).  The adversary assigns faults to
    maximize total recovery cost; the greedy choice (most expensive
    first, up to each cap) is optimal because all faults are
    interchangeable.
    """
    if faults <= 0:
        return 0
    remaining = faults
    total = 0
    for cost, cap in sorted(needs, key=lambda nc: -nc[0]):
        if remaining <= 0:
            break
        take = min(cap, remaining)
        total += take * cost
        remaining -= take
    return total


class FSchedule:
    """An immutable fault-tolerant schedule (order + re-execution caps).

    Parameters
    ----------
    app:
        The application the schedule belongs to.
    entries:
        Processes in execution order with their re-execution caps.
    start_time:
        Time at which the first entry starts; 0 for root schedules,
        the switching time for quasi-static tail schedules.
    fault_budget:
        Number of faults still to be tolerated from ``start_time`` on
        (k for root schedules, fewer for tails entered after faults).
    prior_completed / prior_dropped:
        Context for tail schedules: processes that already finished or
        were already dropped before ``start_time``.  They influence
        stale-value coefficients and are excluded from the dropped set
        of this schedule.
    slack_sharing:
        When ``False``, every recoverable process reserves its own
        private recovery slack instead of sharing one (the
        ``ablation-slack-sharing`` configuration; the paper's scheme
        always shares).
    """

    def __init__(
        self,
        app: Application,
        entries: Sequence[ScheduledEntry],
        start_time: int = 0,
        fault_budget: Optional[int] = None,
        prior_completed: Iterable[str] = (),
        prior_dropped: Iterable[str] = (),
        slack_sharing: bool = True,
    ):
        self.app = app
        self.entries: Tuple[ScheduledEntry, ...] = tuple(entries)
        self.start_time = int(start_time)
        self.fault_budget = app.k if fault_budget is None else int(fault_budget)
        self.prior_completed: FrozenSet[str] = frozenset(prior_completed)
        self.prior_dropped: FrozenSet[str] = frozenset(prior_dropped)
        self.slack_sharing = bool(slack_sharing)
        if self.fault_budget < 0:
            raise SchedulingError("fault budget must be non-negative")
        self._validate()
        self._index = {e.name: i for i, e in enumerate(self.entries)}

    # ------------------------------------------------------------------
    # Construction helpers / validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        graph = self.app.graph
        for label in ("prior_completed", "prior_dropped"):
            unknown = sorted(n for n in getattr(self, label) if n not in graph)
            if unknown:
                raise SchedulingError(f"unknown process(es) {unknown} in {label}")
        seen = set(self.prior_completed)
        overlap = self.prior_completed & self.prior_dropped
        if overlap:
            raise SchedulingError(
                f"processes both completed and dropped before start: "
                f"{sorted(overlap)}"
            )
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate process in schedule: {names}")
        prior = self.prior_completed | self.prior_dropped
        dropped: Optional[FrozenSet[str]] = None  # computed on first need
        for entry in self.entries:
            if entry.name not in graph:
                raise SchedulingError(f"unknown process {entry.name!r}")
            if entry.name in prior:
                raise SchedulingError(
                    f"{entry.name!r} already completed/dropped before start"
                )
            proc = graph[entry.name]
            for pred in graph.predecessors(entry.name):
                if pred not in seen and pred not in self.prior_dropped:
                    # A dropped predecessor supplies a stale value, so
                    # the successor may still run (paper §2.1); an
                    # unscheduled, undropped predecessor is an ordering
                    # violation.
                    if dropped is None:
                        dropped = self._dropped_names(names)
                    if pred not in dropped:
                        raise SchedulingError(
                            f"{entry.name!r} scheduled before its "
                            f"predecessor {pred!r}"
                        )
            if proc.is_hard and entry.reexecutions != self.fault_budget:
                raise SchedulingError(
                    f"hard process {entry.name!r} must be allotted exactly "
                    f"{self.fault_budget} re-executions, got "
                    f"{entry.reexecutions}"
                )
            seen.add(entry.name)

    def _dropped_names(self, scheduled: Sequence[str]) -> FrozenSet[str]:
        scheduled_set = set(scheduled) | self.prior_completed | self.prior_dropped
        return frozenset(
            p.name
            for p in self.app.graph.soft_processes()
            if p.name not in scheduled_set
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchedulingError(f"{name!r} not in schedule") from None

    @property
    def order(self) -> List[str]:
        """Process names in execution order."""
        return [e.name for e in self.entries]

    def reexecutions_of(self, name: str) -> int:
        return self.entries[self.position(name)].reexecutions

    @property
    def dropped(self) -> FrozenSet[str]:
        """Soft processes this schedule decides not to execute.

        Excludes processes dropped before the schedule's start (those
        are in :attr:`prior_dropped`).
        """
        return self._dropped_names([e.name for e in self.entries])

    @property
    def all_dropped(self) -> FrozenSet[str]:
        """Dropped before start plus dropped by this schedule."""
        return self.dropped | self.prior_dropped

    def signature(self) -> Tuple:
        """Hashable identity used to count *different* schedules (FTQS).

        Two schedules are "the same" when they execute the same
        processes in the same order with the same re-execution caps —
        start times and contexts do not affect the online behaviour
        the schedule encodes.
        """
        return tuple((e.name, e.reexecutions) for e in self.entries)

    # ------------------------------------------------------------------
    # Worst-case analysis (hard guarantees)
    # ------------------------------------------------------------------
    def worst_case_completions(self) -> Dict[str, int]:
        """Completion bound of every entry under the fault hypothesis.

        Position ``i`` completes no later than
        ``start + Σ_{j≤i} WCET_j + D_i`` where ``D_i`` is the shared
        recovery demand of the first ``i+1`` entries
        (:func:`shared_recovery_demand`).  Soft re-executions are
        included via their caps — the online scheduler only grants a
        soft re-execution when it cannot push any hard process past its
        deadline, but the static bound must cover the granted ones.
        """
        completions: Dict[str, int] = {}
        clock = self.start_time
        needs: List[Tuple[int, int]] = []
        for entry in self.entries:
            proc = self.app.process(entry.name)
            clock += proc.wcet
            if entry.reexecutions > 0:
                needs.append(
                    (self.app.recovery_need(entry.name), entry.reexecutions)
                )
            if self.slack_sharing:
                demand = shared_recovery_demand(needs, self.fault_budget)
            else:
                demand = sum(
                    cost * min(cap, self.fault_budget) for cost, cap in needs
                )
            completions[entry.name] = clock + demand
        return completions

    def worst_case_makespan(self) -> int:
        """Worst-case completion of the last entry (start if empty)."""
        if not self.entries:
            return self.start_time
        return self.worst_case_completions()[self.entries[-1].name]

    def is_schedulable(self) -> bool:
        """True when every hard deadline and the period hold in the
        worst-case fault scenario.

        Hard processes absent from the schedule (and not completed
        before it) make it unschedulable by definition — hard processes
        can never be dropped.
        """
        missing_hard = [
            p.name
            for p in self.app.hard
            if p.name not in self._index and p.name not in self.prior_completed
        ]
        if missing_hard:
            return False
        completions = self.worst_case_completions()
        for entry in self.entries:
            proc = self.app.process(entry.name)
            if proc.is_hard and completions[entry.name] > proc.deadline:
                return False
        return self.worst_case_makespan() <= self.app.period

    # ------------------------------------------------------------------
    # Expected-case analysis (utility optimization)
    # ------------------------------------------------------------------
    def expected_completions(
        self, durations: Optional[Mapping[str, int]] = None
    ) -> Dict[str, int]:
        """Fault-free completion times under ``durations`` (default AET)."""
        completions: Dict[str, int] = {}
        clock = self.start_time
        for entry in self.entries:
            proc = self.app.process(entry.name)
            duration = (
                durations[entry.name] if durations is not None else proc.aet
            )
            clock += duration
            completions[entry.name] = clock
        return completions

    def expected_utility(
        self, durations: Optional[Mapping[str, int]] = None
    ) -> float:
        """Overall utility of the fault-free execution of this schedule.

        Counts the soft processes scheduled here (α-degraded per the
        stale-value model, with prior and local drops combined);
        completions past the period earn nothing.  Contributions of
        processes completed *before* the schedule's start are a fixed
        constant for all tails compared against each other, so they are
        deliberately excluded.
        """
        completions = self.expected_completions(durations)
        alphas = stale_coefficients(self.app.graph, self.all_dropped)
        total = 0.0
        for entry in self.entries:
            proc = self.app.process(entry.name)
            if not proc.is_soft:
                continue
            t = completions[entry.name]
            if t > self.app.period:
                continue
            total += alphas[entry.name] * proc.utility_at(t)
        return total

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_entries(self, entries: Sequence[ScheduledEntry]) -> "FSchedule":
        """Copy with a different entry list, same context."""
        return FSchedule(
            self.app,
            entries,
            start_time=self.start_time,
            fault_budget=self.fault_budget,
            prior_completed=self.prior_completed,
            prior_dropped=self.prior_dropped,
            slack_sharing=self.slack_sharing,
        )

    def tail_context(
        self, upto: int, completion_time: int, extra_dropped: Iterable[str] = ()
    ) -> Dict:
        """Context kwargs for a tail schedule starting after position
        ``upto`` (inclusive) at ``completion_time``.

        Used by FTQS when re-planning the remainder of a parent
        schedule after observing the completion of its ``upto``-th
        process.
        """
        if not 0 <= upto < len(self.entries):
            raise SchedulingError(f"position {upto} out of range")
        done = set(self.prior_completed)
        done.update(e.name for e in self.entries[: upto + 1])
        return {
            "start_time": completion_time,
            "prior_completed": frozenset(done),
            "prior_dropped": frozenset(self.prior_dropped) | frozenset(extra_dropped),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(
            f"{e.name}+{e.reexecutions}" if e.reexecutions else e.name
            for e in self.entries
        )
        return (
            f"FSchedule([{body}], start={self.start_time}, "
            f"budget={self.fault_budget})"
        )
