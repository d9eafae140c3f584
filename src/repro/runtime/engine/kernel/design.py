"""The C core's design-time entry points: FTSS runs and interval
partitioning.

The paper's design-time half — FTSS list scheduling (§5.2, Fig. 8),
run once per FTQS candidate, and interval partitioning (§5.1) — runs
in the same C core as the simulator: ``rk_ftss.c`` is compiled
appended to ``rk_core.c``, so there is one build, cache entry and load
per (sources, compiler, flags).  :class:`DesignCore` serves one
:class:`~repro.scheduling.compiled.SchedulingContext`: it loads the
core, points an ``rk_plan`` at the context's application tables
(:attr:`~repro.scheduling.compiled.SchedulingContext.lowered`, the
process records, which hold every timing constant the entry points
read, shared with every plan of the application), adds the
``rk_sched`` columns
(:func:`~repro.runtime.engine.kernel.lower.lower_scheduling`: the
graph's successor ranges, predecessor masks and EDF order) and
allocates every work buffer once, then

* :meth:`DesignCore.ftss` is one whole FTSS run in one ``rk_ftss``
  call, returned raw (a :class:`~repro.scheduling.compiled.RawTail`
  of pids, caps and the schedule's latest schedulable start, its
  t_ic, what interval partitioning clamps to): the caller builds the
  f-schedule only if it needs one;
* :meth:`DesignCore.partition` is
  :func:`~repro.quasistatic.intervals.partition` of one FTQS
  candidate in one ``rk_partition`` call: both tails' expected-utility
  profiles, their critical points and the gain scan, clamped at the
  child's t_ic;
* :meth:`DesignCore.expected` is ``TailProfile.expected`` at a list
  of switch times in one ``rk_expected`` call, the profile evaluation
  ``rk_partition`` runs, kept as its probe.

The fourth entry point of ``rk_ftss.c``, ``rk_thresholds``, serves
plan lowering instead (``dispatch.Core.fill_thresholds``).

All release the GIL, keep every buffer on the caller's side and are
bit-identical to their oracles (``tests/test_ftss_differential.py``,
``tests/test_synthesis_differential.py``); the context's lock guards
the buffers, so threads sharing an application take turns.  Where the C
path cannot run, the caller runs the oracle instead and the reason is
counted in
:func:`~repro.runtime.engine.kernel.dispatch.kernel_stats`: the core's
build or load reason, ``"unsupported-utility"`` (a utility without a
kernel lowering), ``"negative-start"`` (the oracle's utility calls
raise on negative clocks), ``"hard-dropped"`` (its stale coefficients
raise on a dropped hard process) or ``"nonconstant-utility"`` (a
profile term the oracle evaluates by quantiles).
"""

from __future__ import annotations

import ctypes
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
from repro.scheduling.compiled import RawTail
from repro.scheduling.fschedule import ScheduledEntry
from repro.scheduling.priority import SUCCESSOR_WEIGHT

#: ``rk_ftss`` outcomes (``RK_FTSS_*`` of ``rk_ftss.c``).
FTSS_OK, FTSS_UNSCHEDULABLE, FTSS_LATE = 0, 1, 2

#: ``rk_partition`` outcomes (``RK_PARTITION_*``).
PARTITION_OK, PARTITION_NONCONSTANT = 0, 1

_WORD = (1 << 64) - 1


class Side(NamedTuple):
    """One schedule as ``rk_partition`` reads it: its ``n`` pids (never
    negative, so the core reads them as int64), then the words of its
    all-dropped mask, in one buffer kept alive here, at address
    ``at``."""

    buffer: np.ndarray
    at: int
    n: int


class DesignCore:
    """``rk_ftss``, ``rk_partition`` and ``rk_expected`` over one
    scheduling context.

    ``reason`` is ``None`` when the C path can run on this context,
    else the counter label of why not.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.reason: Optional[str] = None
        n = len(ctx.names)
        self._n = n
        self._nw = nw = (n + 63) // 64
        self._lock = ctx.lock
        try:
            self._core = load_core()
            tables = ctx.lowered.arrays
            self._arrays = lower_scheduling(ctx)
        except (KernelBuildError, KernelUnsupported) as exc:
            self.reason = exc.reason
            return
        arrays = self._arrays
        self._plan = RkPlan(n_proc=n, nw=nw, period=ctx.period)
        for name in APP_ARRAYS:
            setattr(self._plan, name, tables[name].ctypes.data)
        self._sched = RkSched(
            *(arrays[name].ctypes.data for name, _ in SCHED_ARRAYS),
            len(arrays["edf"]),
        )
        self._plan_ref = ctypes.byref(self._plan)
        self._tables = (self._plan_ref, ctypes.byref(self._sched))
        # rk_ftss: prior sets, work buffers sized for any budget
        # (RK_TOP_SLOTS <= n + 2), pids, caps, count and latest start,
        # and the config's flags.
        self._sets = np.empty(2 * nw, dtype=np.uint64)
        self._sets_at = self._sets.ctypes.data
        self._picks = np.empty(2 * n + 2, dtype=np.int64)
        self._ftss_buffers = (
            np.empty(2 * n + 8 * (n + 2), dtype=np.int64),
            np.empty(2 * n, dtype=np.float64),
            np.empty(16 * nw, dtype=np.uint64),
        )
        at = self._picks.ctypes.data
        self._ftss_out = (at, at + 8 * n, at + 16 * n, at + 16 * n + 8)
        self._ftss_work = tuple(a.ctypes.data for a in self._ftss_buffers)
        self._flags = np.empty(4, dtype=np.int64)
        self._flags_at = self._flags.ctypes.data
        # rk_partition: both profiles' terms, alphas, critical points
        # (lo, hi and each term's breakpoints and period overrun), the
        # winning intervals (grown on demand) and the count and gain.
        self._partition_buffers = (
            np.empty(2 * n, dtype=TTERM),
            np.empty(n, dtype=np.float64),
            np.empty(2 + 2 * len(tables["ubound"]), dtype=np.int64),
        )
        self._partition_work = tuple(
            a.ctypes.data for a in self._partition_buffers
        )
        self._count = np.empty(1, dtype=np.int64)
        self._gain = np.empty(1, dtype=np.float64)
        self._result_at = (self._count.ctypes.data, self._gain.ctypes.data)
        self._grow_intervals(8)

    def _fallback(self, reason: Optional[str]) -> bool:
        """Count ``reason`` (or this context's) if there is one."""
        reason = self.reason or reason
        if reason is not None:
            kernel_stats().count_fallback(reason)
        return reason is not None

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
    ) -> Optional[RawTail]:
        """One FTSS run (prior sets as masks) in one ``rk_ftss`` call,
        raw: the scheduled pids and caps and the latest start at which
        the schedule stays schedulable (its t_ic, what
        :meth:`~repro.scheduling.compiled.SchedulingContext.latest_start`
        computes; ``None`` when the final check rejects the schedule),
        or ``None`` when the run finds no schedule.  Check
        :meth:`ftss_fallback` first."""
        n, nw = self._n, self._nw
        with self._lock:
            self._flags[:] = (
                config.drop_heuristic, config.soft_reexecution,
                config.slack_sharing, config.optimize_for == "wcet",
            )
            sets = self._sets
            for w in range(nw):
                sets[w] = prior_completed >> (64 * w) & _WORD
                sets[nw + w] = prior_dropped >> (64 * w) & _WORD
            status = self._core.ftss(
                *self._tables, self._flags_at,
                float(config.successor_weight), SUCCESSOR_WEIGHT,
                fault_budget, start_time, self._sets_at,
                self._sets_at + 8 * nw, *self._ftss_work, *self._ftss_out,
            )
            picks = self._picks.tolist()
        if status not in (FTSS_OK, FTSS_UNSCHEDULABLE, FTSS_LATE):
            raise RuntimeError(f"rk_ftss rejected its arguments ({status})")
        count = picks[2 * n]
        pids, caps = tuple(picks[:count]), tuple(picks[n : n + count])
        if fault_budget < 0:
            # A hard cap is then negative: raise like the oracle's
            # ScheduledEntry, as it schedules the entry.
            for p, cap in zip(pids, caps):
                ScheduledEntry(self.ctx.names[p], cap)
        if status == FTSS_UNSCHEDULABLE:
            return None
        return RawTail(
            pids, caps, picks[2 * n + 1] if status == FTSS_OK else None
        )

    # ------------------------------------------------------------------
    # Interval partitioning
    # ------------------------------------------------------------------
    def side(self, pids: Sequence[int], all_dropped: int) -> Side:
        """A schedule with entries ``pids`` and all-dropped mask
        ``all_dropped`` (``FSchedule.all_dropped``), as
        :meth:`partition` reads it."""
        buffer = np.array(
            [*pids, *(all_dropped >> (64 * w) & _WORD
                      for w in range(self._nw))],
            dtype=np.uint64,
        )
        return Side(buffer, buffer.ctypes.data, len(pids))

    def _grow_intervals(self, capacity: int) -> None:
        self._intervals = np.empty(2 * capacity, dtype=np.int64)
        self._intervals_at = (self._intervals.ctypes.data, capacity)

    def partition(
        self, parent: Side, first: int, child: Side, lo: int, hi: int,
        latest: int, stride: int,
    ) -> Optional[Tuple[Tuple[Tuple[int, int], ...], float]]:
        """:func:`~repro.quasistatic.intervals.partition` of switching
        from ``parent``, whose remaining tail is its entries from
        position ``first`` on, to ``child``, whose latest schedulable
        start is ``latest``, for completion times in ``[lo, hi]``:
        ``(intervals, improvement)`` in one ``rk_partition`` call, or
        ``None`` with the reason counted when a profile term is not
        piecewise constant or the C path cannot run here."""
        if self._fallback(None):
            return None
        with self._lock:
            while True:
                status = self._core.partition(
                    self._plan_ref,
                    parent.at + 8 * first, parent.n - first,
                    parent.at + 8 * parent.n,
                    child.at, child.n, child.at + 8 * child.n,
                    lo, hi, latest, stride,
                    *self._partition_work, *self._intervals_at,
                    *self._result_at,
                )
                if status != PARTITION_OK:
                    break
                count = int(self._count[0])
                if count <= self._intervals_at[1]:
                    bounds = self._intervals[: 2 * count].tolist()
                    gain = float(self._gain[0])
                    break
                self._grow_intervals(count)
        if status == PARTITION_NONCONSTANT:
            kernel_stats().count_fallback("nonconstant-utility")
            return None
        if status != PARTITION_OK:
            raise RuntimeError(
                f"rk_partition rejected its arguments ({status})"
            )
        return tuple(zip(bounds[::2], bounds[1::2])), gain

    # ------------------------------------------------------------------
    # Expected-utility profiles
    # ------------------------------------------------------------------
    def expected(
        self, terms: np.ndarray, points: List[int]
    ) -> Optional[np.ndarray]:
        """``TailProfile.expected`` of the profile with ``terms`` (a
        :data:`~repro.runtime.engine.kernel.lower.TTERM` array, every
        utility piecewise constant) at every one of ``points``, in one
        ``rk_expected`` call, or ``None`` with the reason counted."""
        if self._fallback(None):
            return None
        pts = np.array(points, dtype=np.int64)
        out = np.empty(len(pts), dtype=np.float64)
        self._core.expected(
            self._plan_ref, c_address(terms, TTERM), len(terms),
            c_address(pts, np.int64), len(pts), c_address(out, np.float64),
        )
        return out
