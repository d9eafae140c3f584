"""One application compiled for FTSS, FTQS and the C core (paper §5).

:class:`SchedulingContext` numbers the processes of one application in
sorted-name order, so every ``sorted(...)`` and every smallest-name
tie-break of the oracle is pid order; per-process tables are
pid-indexed lists and sets are int bitmasks.  It holds no FTSS config,
so one context serves runs of any config.

An application has one context: :meth:`SchedulingContext.of` builds it
on first use and keeps it on the (immutable) application, so root
admission, FTSF's NFT stage, the FTQS engine and the kernel engine's
plan lowering all share it.  Its C-core tables are built lazily, once:
:attr:`SchedulingContext.lowered` is the application part of every
``rk_plan`` (:func:`~repro.runtime.engine.kernel.lower.lower_application`:
process records, graph and utility tables, in the context's pid order,
which every plan of the application uses too), and
:attr:`SchedulingContext.core` the design-time entry points over them
(:class:`~repro.runtime.engine.kernel.design.DesignCore`):
:func:`repro.scheduling.ftss.ftss_compiled` runs one whole FTSS there
in one ``rk_ftss`` call, and the FTQS engine
(:mod:`repro.quasistatic.synthesis`) partitions each candidate's
switch intervals there in one ``rk_partition`` call.  Both are exact
clones of their oracles, :func:`~repro.scheduling.ftss.ftss_reference`
and :func:`~repro.quasistatic.intervals.partition`, which run instead,
with a counted reason, where the C path cannot
(``tests/test_ftss_differential.py`` compares every field of the
result, ``tests/test_synthesis_differential.py`` whole trees and every
partition).  A per-context lock guards the lazy builds and the core's
work buffers, so threads may share an application.

Names are converted only at the boundary: prior sets in
(:meth:`SchedulingContext.prior_masks`), the f-schedule out
(:meth:`SchedulingContext.schedule` of a :class:`RawTail`).
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import ModelError, SchedulingError
from repro.scheduling.feasibility import latest_start
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
from repro.scheduling.schedulability import edf_hard_order


def pids(mask: int) -> Iterator[int]:
    """The process ids in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RawTail(NamedTuple):
    """One FTSS run before it becomes an f-schedule
    (:meth:`SchedulingContext.schedule`): the scheduled pids and their
    re-execution caps, in order, and the latest start at which the
    schedule stays schedulable (its t_ic), ``None`` when the run's
    final check rejected it."""

    pids: Tuple[int, ...]
    caps: Tuple[int, ...]
    latest: Optional[int]


#: Serializes the first :meth:`SchedulingContext.of` of an application.
_OF_LOCK = threading.Lock()


def _reset_lock() -> None:
    """Give a forked child a fresh lock: one another parent thread
    held at the fork would never be released in the child."""
    global _OF_LOCK
    _OF_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock)


class SchedulingContext:
    """One application compiled to pid tables, plus, on first use, the
    C core's tables.  :meth:`of` is an application's one context."""

    @classmethod
    def of(cls, app) -> "SchedulingContext":
        """``app``'s context: built on first use, then the same one."""
        ctx = app._context
        if ctx is None:
            with _OF_LOCK:
                ctx = app._context
                if ctx is None:
                    ctx = cls(app)
                    # The application is immutable; this slot is the
                    # one it keeps for its context.
                    object.__setattr__(app, "_context", ctx)
        return ctx

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
        self.deadline = [p.deadline for p in procs]
        self.mu = [app.recovery_overhead(name) for name in names]
        self.need = [w + m for w, m in zip(self.wcet, self.mu)]
        self.is_hard = [p.is_hard for p in procs]
        self.hard_mask = sum(1 << i for i, h in enumerate(self.is_hard) if h)
        self.soft_mask = ((1 << len(names)) - 1) & ~self.hard_mask
        self.pred_list = [
            tuple(pid[q] for q in graph.predecessors(name)) for name in names
        ]
        self.succs = [
            tuple(pid[s] for s in graph.successors(name)) for name in names
        ]
        # The modified-deadline EDF order of every hard process: a
        # static sort, so the remaining-hard order of any prefix is
        # this tuple filtered (see schedulability.py).
        hard = self.names_of(self.hard_mask)
        self.edf_hard = tuple(pid[name] for name in edf_hard_order(app, hard))
        #: Guards the lazy builds below and the core's work buffers.
        self.lock = threading.Lock()
        self._lowered = None
        self._core = None

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

    def schedule(
        self, raw: RawTail, fault_budget: int, start_time: int,
        prior_completed: int, prior_dropped: int, slack_sharing: bool,
    ) -> FSchedule:
        """The validated f-schedule of ``raw``, an FTSS run with these
        arguments (prior sets as masks)."""
        names = self.names
        return FSchedule(
            self.app,
            [
                ScheduledEntry(names[p], cap)
                for p, cap in zip(raw.pids, raw.caps)
            ],
            start_time=start_time,
            fault_budget=fault_budget,
            prior_completed=self.names_of(prior_completed),
            prior_dropped=self.names_of(prior_dropped),
            slack_sharing=slack_sharing,
        )

    def raw_tail(self, schedule: FSchedule) -> RawTail:
        """``schedule``, an f-schedule the oracle built, as a
        :class:`RawTail`."""
        pid = self.pid
        return RawTail(
            tuple(pid[e.name] for e in schedule.entries),
            tuple(e.reexecutions for e in schedule.entries),
            self.latest_start(schedule),
        )

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

    @property
    def lowered(self):
        """The application part of every ``rk_plan`` of this
        application, in pid order
        (:class:`~repro.runtime.engine.kernel.lower.LoweredApplication`),
        built on first use; raises
        :class:`~repro.runtime.engine.kernel.lower.KernelUnsupported`,
        every time, for an application the core cannot express."""
        # Imported here: the runtime layer imports this one.
        from repro.runtime.engine.kernel import lower

        lowered = self._lowered
        if lowered is None:
            with self.lock:
                if self._lowered is None:
                    try:
                        self._lowered = lower.LoweredApplication(self)
                    except lower.KernelUnsupported as exc:
                        self._lowered = (exc.reason, str(exc))
                lowered = self._lowered
        if isinstance(lowered, tuple):
            raise lower.KernelUnsupported(*lowered)
        return lowered

    @property
    def core(self):
        """The C core's design-time entry points over this context
        (:class:`~repro.runtime.engine.kernel.design.DesignCore`),
        built on first use; when the core could not be had then, its
        reason stands for the context's life."""
        core = self._core
        if core is None:
            from repro.runtime.engine.kernel.design import DesignCore

            # Built outside the lock: loading the core takes the
            # kernel's lock, and this one is never held around another.
            built = DesignCore(self)
            with self.lock:
                if self._core is None:
                    self._core = built
                core = self._core
        return core

    def latest_start(self, schedule: FSchedule) -> Optional[int]:
        """The latest start at which ``schedule`` stays schedulable
        (:func:`~repro.scheduling.feasibility.latest_start` over the
        tables), or ``None`` when a hard process is neither in it nor
        completed before it: the oracle of the value ``rk_ftss``
        reports with each schedule it builds."""
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
