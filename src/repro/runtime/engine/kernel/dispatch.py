"""Kernel dispatch: run batches through the C core or the oracle.

:class:`KernelSimulator` runs one plan over whole
:class:`~repro.runtime.engine.batch.ScenarioBatch` sets and returns a
:class:`~repro.runtime.engine.simulator.BatchResult`.  Construction
makes sure the one C core is loaded — built at most once per cache,
loaded at most once per process, and a failed build is not retried
for the life of the process — and fetches the plan's lowered tables:
from the in-process memo, a least-recently-used map of at most
:data:`TABLES_CAPACITY` plans keyed by :func:`plan_key` (a SHA-256
over the application's lowered records and the plan's flattened tree,
no JSON), else by lowering the plan on the loaded core (its §2.2
thresholds in one ``rk_thresholds`` call).  The application's records
come from its one
:class:`~repro.scheduling.compiled.SchedulingContext`, lowered once
per application and shared with synthesis, so a plan lowers only its
tree.  Anything that prevents that — no compiler, a failed build, an
unusable cache directory, a plan the core cannot express, injected
chaos — degrades to replaying every scenario on the reference oracle,
with a counted reason; results are identical either way, so
degradation is a performance event, never a correctness one.

Per batch, the core executes every scenario in one C call
(:func:`run_core`; the GIL is released for its duration) writing
into the result's arrays; scenarios the C walk flags as outside its
state model are replayed on the oracle afterwards into the same
arrays — including reproducing the oracle's raises.

The module-global :class:`KernelStats` mirrors the parallel pool's
``pool_recovery()`` idiom: core builds, table memo hits and
per-reason fallback counts accumulated process-wide, surfaced on the
CLI ``simulate:`` line and the service ``/metrics`` document.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.kernel.build import (
    KernelBuildError,
    cached_object,
    compile_kernel,
    core_fingerprint,
    generate_kernel_source,
    load_kernel,
)
from repro.runtime.engine.kernel.lower import (
    KernelUnsupported,
    LoweredPlan,
    RkPlan,
    RkSched,
    flatten_plan,
    lower_plan,
)
from repro.runtime.engine.simulator import BatchResult, BatchSimulator
from repro.scheduling.compiled import SchedulingContext


@dataclass
class KernelStats:
    """Process-wide counters of core builds, table hits and fallbacks.

    ``compiles`` counts compiler invocations (the core is built once
    per cache), ``cache_hits`` plans whose lowered tables came from
    the in-process memo instead of being lowered, and ``fallbacks``
    maps a degradation reason
    (``"no-compiler"``, ``"compile-failed"``, ``"load-failed"``,
    ``"cache-unavailable"``, ``"unsupported-utility"``,
    ``"unsupported-plan"``, ``"chaos"``, and for the design-time entry
    points ``"negative-start"``, ``"hard-dropped"`` and
    ``"nonconstant-utility"``) to how many simulator constructions,
    FTSS runs and interval partitionings degraded to their oracle
    for it (see :mod:`~repro.runtime.engine.kernel.design`).
    ``oracle_scenarios`` counts per-scenario oracle replays out of
    otherwise kernel-run batches (the residual a batch reports as
    ``n_fallback``).  Updates take a per-object lock (shard threads
    and service requests share the global one); reads are plain
    attribute reads.
    """

    compiles: int = 0
    cache_hits: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    oracle_scenarios: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False,
    )

    @property
    def n_fallbacks(self) -> int:
        return sum(self.fallbacks.values())

    def add(self, counter: str, n: int = 1) -> None:
        """Increment the integer field ``counter`` by ``n``."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def count_fallback(self, reason: str) -> None:
        with self._lock:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def snapshot(self) -> "KernelStats":
        with self._lock:
            return replace(self, fallbacks=dict(self.fallbacks))

    def as_dict(self) -> Dict:
        return {
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "fallbacks": dict(self.fallbacks),
            "oracle_scenarios": self.oracle_scenarios,
        }

    def summary(self) -> str:
        parts = [
            f"{self.compiles} compile(s)",
            f"{self.cache_hits} cache hit(s)",
        ]
        if self.fallbacks:
            reasons = ", ".join(
                f"{reason} x{count}"
                for reason, count in sorted(self.fallbacks.items())
            )
            parts.append(f"{self.n_fallbacks} fallback(s) [{reasons}]")
        if self.oracle_scenarios:
            parts.append(f"{self.oracle_scenarios} oracle scenario(s)")
        return ", ".join(parts)


#: Process-wide stats (workers accumulate their own; the parent's
#: covers its warm-up, which is what the CLI line reports).
_GLOBAL_STATS = KernelStats()


def kernel_stats() -> KernelStats:
    """The process-wide kernel counters (mutated in place)."""
    return _GLOBAL_STATS


def reset_kernel_stats() -> None:
    """Zero the process-wide counters (tests and CLI runs)."""
    global _GLOBAL_STATS
    _GLOBAL_STATS = KernelStats()


@dataclass(frozen=True)
class Core:
    """The loaded core's entry points, with their ctypes signatures."""

    run: Any
    ftss: Any
    expected: Any
    thresholds: Any
    partition: Any

    def fill_thresholds(
        self, lowered: LoweredPlan, sharing: np.ndarray, bad: np.ndarray,
    ) -> None:
        """Fill the ``thr`` array, the §2.2 table of a plan lowered up
        to it, in one ``rk_thresholds`` call through ``lowered``'s
        struct: per-node slack sharing and per-entry probe rejection
        flags (uint8)."""
        plan, arrays = lowered.struct, lowered.arrays
        if (len(sharing), len(bad)) != (plan.n_nodes, len(arrays["entries"])):
            raise ValueError("rk_thresholds columns do not match the plan")
        work = np.empty(2 * top_slots(plan.n_proc, plan.k), dtype=np.int64)
        columns = ((sharing, np.uint8), (bad, np.uint8), (work, np.int64),
                   (arrays["thr"], np.int64))
        rc = self.thresholds(
            ctypes.byref(plan),
            *(c_address(array, dtype) for array, dtype in columns),
        )
        if rc != 0:
            raise RuntimeError(f"rk_thresholds rejected its arguments ({rc})")


#: The loaded :class:`Core`, once per process.
_CORE: Optional[Core] = None

#: ``(reason, message)`` of a core build or load that failed, by core
#: fingerprint: the compiler is not run again for the life of the
#: process, and every later attempt counts the same reason.
_FAILED: Dict[str, Tuple[str, str]] = {}

#: How many plans' tables the memo keeps.  A Monte-Carlo comparison
#: re-uses a handful of plans; a long-lived server sees a new plan per
#: distinct request, and a large tree's tables take hundreds of KB.
TABLES_CAPACITY = 16

#: Lowered tables by :func:`plan_key`, least recently used first.
_TABLES: "OrderedDict[str, LoweredPlan]" = OrderedDict()

#: Serializes core loading and table lookups, so concurrent
#: constructions build and lower once and count deterministically.
_LOCK = threading.Lock()


def _reset_locks() -> None:
    """Give a forked child fresh locks: a lock another parent thread
    held at the fork would never be released in the child."""
    global _LOCK
    _LOCK = threading.Lock()
    _GLOBAL_STATS._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_locks)


#: Arrays reach the core as plain addresses (:func:`c_address`).
_PTR, _I64 = ctypes.c_void_p, ctypes.c_int64


def c_address(array: np.ndarray, dtype) -> int:
    """The data address of ``array``, which a C entry point reads as a
    C-contiguous buffer of ``dtype``.

    The entry points take addresses rather than ``ndpointer``
    arguments because ctypes converts those in Python code inside the
    call, where an exception — a Ctrl-C's ``KeyboardInterrupt`` —
    would surface as a ``ctypes.ArgumentError``.
    """
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(
            f"expected a C-contiguous {np.dtype(dtype)} array, "
            f"got {array.dtype}"
        )
    return array.ctypes.data


def top_slots(n_proc: int, budget: int) -> int:
    """``RK_TOP_SLOTS`` of ``rk_ftss.c``: the slots of one recovery
    top-list."""
    return min(max(budget, 1), n_proc) + 2


def bind_core(lib: ctypes.CDLL):
    """``lib``'s ``rk_run`` with its ctypes signature, once the
    library's ``rk_plan`` is checked to be :class:`RkPlan`'s size."""
    size = lib.rk_plan_size
    size.restype = ctypes.c_int64
    size.argtypes = []
    if size() != ctypes.sizeof(RkPlan):
        raise KernelBuildError(
            "load-failed",
            f"core {lib._name} has a {size()}-byte rk_plan, "
            f"expected {ctypes.sizeof(RkPlan)}",
        )
    run = lib.rk_run
    run.restype = ctypes.c_int64
    run.argtypes = [ctypes.POINTER(RkPlan)] + [_PTR] * 3 + [_I64] * 2 + [
        _PTR
    ] * 8
    return run


def bind_design(lib: ctypes.CDLL):
    """``lib``'s ``rk_ftss``, ``rk_expected``, ``rk_thresholds`` and
    ``rk_partition`` with their ctypes signatures."""
    ftss = lib.rk_ftss
    ftss.restype = _I64
    ftss.argtypes = [
        ctypes.POINTER(RkPlan), ctypes.POINTER(RkSched),
        _PTR,  # flags
        ctypes.c_double, ctypes.c_double,  # weights
        _I64, _I64,  # budget, start
        _PTR, _PTR,  # completed, dropped
        _PTR, _PTR, _PTR,  # work buffers
        _PTR, _PTR, _PTR, _PTR,  # pids, caps, count, latest start
    ]
    expected = lib.rk_expected
    expected.restype = _I64
    expected.argtypes = [
        ctypes.POINTER(RkPlan), _PTR, _I64, _PTR, _I64, _PTR,
    ]
    thresholds = lib.rk_thresholds
    thresholds.restype = _I64
    thresholds.argtypes = [ctypes.POINTER(RkPlan)] + [_PTR] * 4
    partition = lib.rk_partition
    partition.restype = _I64
    partition.argtypes = [
        ctypes.POINTER(RkPlan),
        _PTR, _I64, _PTR,  # parent pids, count, all-dropped mask
        _PTR, _I64, _PTR,  # child pids, count, all-dropped mask
        _I64, _I64, _I64, _I64,  # lo, hi, latest start, stride
        _PTR, _PTR, _PTR,  # work buffers
        _PTR, _I64, _PTR, _PTR,  # intervals, their capacity, count, gain
    ]
    return ftss, expected, thresholds, partition


def run_core(run, plan: RkPlan, batch: ScenarioBatch) -> BatchResult:
    """Every scenario of ``batch`` through one ``rk_run`` call into the
    result's arrays; the scenarios the core flags have ``fast_path``
    unset, for the caller to replay (a rejected call flags them all)."""
    n = batch.n_scenarios
    result = BatchResult.empty(n, plan.n_nodes + 1)
    flagged = np.zeros(n, dtype=np.uint8)
    # Work buffers of the RK_*_LEN sizes, per call: threads shards run
    # one plan concurrently.  The tuples keep every array alive while
    # the core holds its address.
    buffers = (
        (np.empty(2 * plan.n_proc, dtype=np.int64), np.int64),
        (np.empty(2 * plan.n_proc, dtype=np.float64), np.float64),
        (np.empty(5 * plan.nw, dtype=np.uint64), np.uint64),
    )
    arrays = (
        (np.ascontiguousarray(batch.durations, dtype=np.int64), np.int64),
        (np.ascontiguousarray(batch.fault_counts, dtype=np.int64), np.int64),
        (result.utilities, np.float64),
        (result.deadline_miss.view(np.uint8), np.uint8),
        (result.switch_counts, np.int64),
        (result.faults_observed, np.int64),
        (result.chains, np.int64),
        (flagged, np.uint8),
    )
    rc = run(
        ctypes.byref(plan),
        *(c_address(array, dtype) for array, dtype in buffers),
        n,
        batch.max_attempts,
        *(c_address(array, dtype) for array, dtype in arrays),
    )
    if rc != 0:  # pragma: no cover - guarded by ScenarioBatch
        flagged[:] = 1
    result.fast_path[:] = flagged == 0
    return result


def _load_core() -> Core:
    """The core's entry points, building and loading it on first use."""
    global _CORE
    if _CORE is None:
        source = generate_kernel_source()
        fingerprint = core_fingerprint(source)
        if fingerprint in _FAILED:
            raise KernelBuildError(*_FAILED[fingerprint])
        so_path = cached_object(fingerprint)
        try:
            if so_path is None:
                so_path = compile_kernel(source, fingerprint)
                kernel_stats().add("compiles")
            lib = load_kernel(so_path)
            core = Core(bind_core(lib), *bind_design(lib))
        except KernelBuildError as exc:
            if exc.reason in ("compile-failed", "load-failed"):
                _FAILED[fingerprint] = (exc.reason, str(exc))
            raise
        _CORE = core
    return _CORE


def load_core() -> Core:
    """:func:`_load_core` under the module lock (looked up per call: a
    forked child replaces the lock)."""
    with _LOCK:
        return _load_core()


def prepare_core() -> Optional[Core]:
    """The core, loaded now (ahead of a fan-out, forked workers
    inherit it), or ``None`` when it cannot be had, counted as a
    fallback here, once."""
    try:
        return load_core()
    except KernelBuildError as exc:
        kernel_stats().count_fallback(exc.reason)
        return None


def plan_key(app: Application, tree: QSTree) -> str:
    """The memo key of ``tree``'s tables: the SHA-256 of the
    application's lowered records (in its context's numbering, so each
    process's predecessor order, which the stale-coefficient sums
    follow, is part of it) and of the flattened tree
    (:meth:`~repro.runtime.engine.kernel.lower.FlatPlan.key`): equal
    for equal content, whatever the objects, JSON round trips
    included."""
    return flatten_plan(SchedulingContext.of(app), tree).key()


def _plan_tables(
    ctx: SchedulingContext, tree: QSTree, core: Core
) -> LoweredPlan:
    """The lowered tables of ``tree``, from the memo or lowered now
    on ``core`` from the flattening that keyed it.  Reads only what
    ``ctx`` already built: it runs under :data:`_LOCK`."""
    flat = flatten_plan(ctx, tree)
    key = flat.key()
    lowered = _TABLES.get(key)
    if lowered is not None:
        _TABLES.move_to_end(key)
        kernel_stats().add("cache_hits")
        return lowered
    lowered = _TABLES[key] = lower_plan(ctx.app, flat, core)
    while len(_TABLES) > TABLES_CAPACITY:
        _TABLES.popitem(last=False)
    return lowered


class KernelSimulator(BatchSimulator):
    """C-core executor of one plan, bit-identical to the oracle.

    A :class:`BatchSimulator` whose :meth:`prepare` loads the core and
    fetches the plan's lowered tables, and which routes whole batches
    through the core when both can be had, else replays them on the
    oracle.  ``engine_used`` reports which runs: ``"kernel"``, or
    ``"reference"`` after a counted degradation.
    """

    def prepare(self) -> None:
        self._run = None
        self._lowered: Optional[LoweredPlan] = None
        self.fallback_reason: Optional[str] = None
        try:
            core = load_core()
            # The application's records, built (once per application)
            # before _LOCK: the context's own lock is never taken
            # under it.
            ctx = SchedulingContext.of(self.app)
            ctx.lowered
            with _LOCK:
                # Lowered on this core: _LOCK is not reentrant, so
                # lowering never loads one itself.
                self._lowered = _plan_tables(ctx, self.tree, core)
            self._run = core.run
        except (KernelUnsupported, KernelBuildError) as exc:
            self.fallback_reason = exc.reason
            kernel_stats().count_fallback(exc.reason)

    @property
    def engine_used(self) -> str:
        return "reference" if self._run is None else "kernel"

    def run_batch(self, batch: ScenarioBatch) -> BatchResult:
        """Execute every scenario of ``batch``; see :class:`BatchResult`."""
        if self._run is None:
            return super().run_batch(batch)
        self.check_columns(batch)
        result = run_core(self._run, self._lowered.struct, batch)
        residual = np.flatnonzero(~result.fast_path)
        if residual.size:
            kernel_stats().add("oracle_scenarios", int(residual.size))
            for i in residual:
                self._run_oracle(batch, int(i), result)
        return result
