"""One application compiled for FTSS and FTQS (paper §5).

:class:`SchedulingContext` numbers the processes of one application in
sorted-name order, so every ``sorted(...)`` and every smallest-name
tie-break of the oracle is pid order; per-process tables are
pid-indexed lists, sets are int bitmasks, and stale coefficients are
memoized per dropped mask.  It holds no FTSS config, so one context
serves runs of any config.

The runs themselves happen in the C core.  :attr:`SchedulingContext.core`
lowers the context's tables once
(:class:`~repro.runtime.engine.kernel.design.DesignCore`):
:func:`repro.scheduling.ftss.ftss_compiled` runs one whole FTSS there
in one ``rk_ftss`` call, and the FTQS engine
(:mod:`repro.quasistatic.synthesis`) evaluates its interval
partitioning there with ``rk_expected``.  Both are exact clones of
their oracles, :func:`~repro.scheduling.ftss.ftss_reference` and
:meth:`~repro.quasistatic.intervals.TailProfile.expected`, which run
instead, with a counted reason, where the C path cannot
(``tests/test_ftss_differential.py`` compares every field of the
result, ``tests/test_synthesis_differential.py`` whole trees).

Names are converted only at the boundary: prior sets in
(:meth:`SchedulingContext.prior_masks`), the f-schedule out.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ModelError, SchedulingError
from repro.scheduling.feasibility import latest_start
from repro.scheduling.fschedule import FSchedule
from repro.scheduling.schedulability import edf_hard_order


def pids(mask: int) -> Iterator[int]:
    """The process ids in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SchedulingContext:
    """One application compiled to pid tables, plus the stale
    coefficients memo and, on first use, the C core's tables."""

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
        self.pred_list = [
            tuple(pid[q] for q in graph.predecessors(name)) for name in names
        ]
        self.succs = [
            tuple(pid[s] for s in graph.successors(name)) for name in names
        ]
        self.topo = tuple(pid[name] for name in graph.topological_order())
        self.utilities = [p.utility for p in procs]
        # The modified-deadline EDF order of every hard process: a
        # static sort, so the remaining-hard order of any prefix is
        # this tuple filtered (see schedulability.py).
        self.edf_hard = tuple(
            pid[name] for name in edf_hard_order(app, [p.name for p in app.hard])
        )
        self._alphas: Dict[int, List[float]] = {}
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
    def core(self):
        """The C core's design-time entry points over this context
        (:class:`~repro.runtime.engine.kernel.design.DesignCore`),
        lowered on first use."""
        if self._core is None:
            # Imported here: the runtime layer imports this one.
            from repro.runtime.engine.kernel.design import DesignCore

            self._core = DesignCore(self)
        return self._core

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
            total = 0.0
            for q in preds:
                total += alphas[q]
            alphas[p] = (1.0 + total) / (1.0 + len(preds))
        self._alphas[dropped] = alphas
        return alphas

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
