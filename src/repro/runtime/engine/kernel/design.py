"""The C core's design-time entry points: FTSS runs and tail profiles.

The paper's design-time half — FTSS list scheduling (§5.2, Fig. 8),
run once per FTQS candidate, and interval partitioning (§5.1) — runs
in the same C core as the simulator: ``rk_ftss.c`` is compiled
appended to ``rk_core.c``, so there is one build, cache entry and load
per (sources, compiler, flags).  :class:`DesignCore` serves one
:class:`~repro.scheduling.compiled.SchedulingContext`: it loads the
core and lowers the context's application once
(:func:`~repro.runtime.engine.kernel.lower.lower_scheduling`), then

* :meth:`DesignCore.ftss` is one whole FTSS run in one ``rk_ftss``
  call, and
* :meth:`DesignCore.expected` is ``TailProfile.expected`` at every
  switch time of one profile in one ``rk_expected`` call.

Both release the GIL, keep every buffer on the caller's side and are
bit-identical to their oracles (``tests/test_ftss_differential.py``,
``tests/test_synthesis_differential.py``).  Where the C path cannot
run, the caller runs the oracle instead and the reason is counted in
:func:`~repro.runtime.engine.kernel.dispatch.kernel_stats`: the core's
build or load reason, ``"unsupported-utility"`` (a utility without a
kernel lowering), ``"negative-start"`` (the oracle's utility calls
raise on negative clocks), ``"hard-dropped"`` (its stale coefficients
raise on a dropped hard process) or ``"nonconstant-utility"`` (a
profile term the oracle evaluates by quantiles).
"""

from __future__ import annotations

import ctypes
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.engine.kernel.build import KernelBuildError
from repro.runtime.engine.kernel.dispatch import (
    c_address,
    kernel_stats,
    load_core,
)
from repro.runtime.engine.kernel.lower import (
    APP_ARRAYS,
    SCHED_ARRAYS,
    TTERM,
    KernelUnsupported,
    RkPlan,
    RkSched,
    lower_scheduling,
)
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
from repro.scheduling.priority import SUCCESSOR_WEIGHT

#: ``rk_ftss`` outcomes (``RK_FTSS_*`` of ``rk_ftss.c``).
FTSS_OK, FTSS_UNSCHEDULABLE, FTSS_LATE = 0, 1, 2

_WORD = (1 << 64) - 1


class DesignCore:
    """``rk_ftss`` and ``rk_expected`` over one scheduling context.

    ``reason`` is ``None`` when the C path can run on this context,
    else the counter label of why not.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.reason: Optional[str] = None
        self._nw = (len(ctx.names) + 63) // 64
        try:
            self._core = load_core()
            self._arrays = lower_scheduling(ctx)
        except (KernelBuildError, KernelUnsupported) as exc:
            self.reason = exc.reason
            return
        arrays = self._arrays
        self._plan = RkPlan(n_proc=len(ctx.names), nw=self._nw,
                            period=ctx.period)
        for name in APP_ARRAYS:
            setattr(self._plan, name, arrays[name].ctypes.data)
        self._sched = RkSched(
            *(arrays[name].ctypes.data for name, _ in SCHED_ARRAYS),
            len(arrays["edf"]),
        )

    def _fallback(self, reason: Optional[str]) -> bool:
        """Count ``reason`` (or this context's) if there is one."""
        reason = self.reason or reason
        if reason is not None:
            kernel_stats().count_fallback(reason)
        return reason is not None

    def _words(self, mask: int) -> np.ndarray:
        return np.array(
            [mask >> (64 * w) & _WORD for w in range(self._nw)],
            dtype=np.uint64,
        )

    # ------------------------------------------------------------------
    # FTSS
    # ------------------------------------------------------------------
    def ftss_fallback(self, start_time: int, prior_dropped: int) -> bool:
        """True, with the reason counted, when an FTSS run from
        ``start_time`` after the ``prior_dropped`` mask cannot run
        here."""
        if start_time < 0:
            return self._fallback("negative-start")
        if prior_dropped & self.ctx.hard_mask:
            return self._fallback("hard-dropped")
        return self._fallback(None)

    def ftss(
        self, config, fault_budget: int, start_time: int,
        prior_completed: int, prior_dropped: int,
    ) -> Optional[FSchedule]:
        """One FTSS run (prior sets as masks) in one ``rk_ftss`` call:
        the f-schedule, or ``None`` when unschedulable.  Check
        :meth:`ftss_fallback` first."""
        ctx = self.ctx
        n, nw = len(ctx.names), self._nw
        slots = min(max(fault_budget, 1), n) + 2  # RK_TOP_SLOTS
        flags = np.array(
            [config.drop_heuristic, config.soft_reexecution,
             config.slack_sharing, config.optimize_for == "wcet"],
            dtype=np.int64,
        )
        sets = np.concatenate(
            (self._words(prior_completed), self._words(prior_dropped))
        )
        work_i = np.empty(2 * n + 8 * slots, dtype=np.int64)
        work_d = np.empty(2 * n, dtype=np.float64)
        work_m = np.empty(16 * nw, dtype=np.uint64)
        picks = np.empty(2 * n + 1, dtype=np.int64)  # pids, caps, count
        at = picks.ctypes.data
        status = self._core.ftss(
            ctypes.byref(self._plan), ctypes.byref(self._sched),
            flags.ctypes.data, float(config.successor_weight),
            SUCCESSOR_WEIGHT, fault_budget, start_time,
            sets.ctypes.data, sets.ctypes.data + 8 * nw,
            work_i.ctypes.data, work_d.ctypes.data, work_m.ctypes.data,
            at, at + 8 * n, at + 16 * n,
        )
        if status not in (FTSS_OK, FTSS_UNSCHEDULABLE, FTSS_LATE):
            raise RuntimeError(f"rk_ftss rejected its arguments ({status})")
        count = int(picks[2 * n])
        # Entries first: a negative cap raises like the oracle's
        # ScheduledEntry at scheduling time.
        entries = [
            ScheduledEntry(ctx.names[p], cap)
            for p, cap in zip(
                picks[:count].tolist(), picks[n : n + count].tolist()
            )
        ]
        if status == FTSS_UNSCHEDULABLE:
            return None
        schedule = FSchedule(
            ctx.app,
            entries,
            start_time=start_time,
            fault_budget=fault_budget,
            prior_completed=ctx.names_of(prior_completed),
            prior_dropped=ctx.names_of(prior_dropped),
            slack_sharing=config.slack_sharing,
        )
        return schedule if status == FTSS_OK else None

    # ------------------------------------------------------------------
    # Expected-utility profiles
    # ------------------------------------------------------------------
    @staticmethod
    def tail_terms(
        rows: Sequence[Tuple[int, int, int, int, float, float, float]],
    ) -> np.ndarray:
        """A profile's soft terms as ``rk_tterm`` records: ``(pid,
        count, lo_sum, hi_sum, alpha, mean, variance)`` each."""
        return np.array(rows, dtype=TTERM)

    def expected(
        self, terms: Optional[np.ndarray], points: List[int]
    ) -> Optional[np.ndarray]:
        """``TailProfile.expected`` of the profile with ``terms`` (see
        :meth:`tail_terms`; ``None`` for a profile with a term that is
        not piecewise constant) at every one of ``points``, in one
        ``rk_expected`` call, or ``None`` with the reason counted."""
        if self._fallback(
            None if terms is not None else "nonconstant-utility"
        ):
            return None
        pts = np.array(points, dtype=np.int64)
        out = np.empty(len(pts), dtype=np.float64)
        self._core.expected(
            ctypes.byref(self._plan), c_address(terms, TTERM), len(terms),
            c_address(pts, np.int64), len(pts), c_address(out, np.float64),
        )
        return out
