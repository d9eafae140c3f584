"""Kernel dispatch: run batches through the C core or fall back.

:class:`KernelSimulator` is a drop-in replacement for
:class:`~repro.runtime.engine.simulator.BatchSimulator`: same
constructor, same :meth:`run_batch` contract, same
:class:`~repro.runtime.engine.simulator.BatchResult`.  Construction
makes sure the one C core is loaded — built at most once per cache,
loaded at most once per process — and fetches the plan's lowered
tables: from the in-process memo, else the on-disk ``.npz`` cache,
else by lowering the plan (and storing the result), all keyed by
:func:`~repro.runtime.engine.kernel.lower.plan_fingerprint`.  Anything
that prevents that — no compiler, a failed build, a plan the core
cannot express, injected chaos — degrades to the wrapped NumPy
``BatchSimulator`` with a counted reason; results are identical either
way, so degradation is a performance event, never a correctness one.

Per batch, the core executes every scenario in one C call (the GIL is
released for its duration); scenarios the C walk flags as outside its
state model are replayed on the oracle afterwards, exactly like the
NumPy engine's own fallback — including reproducing the oracle's
raises.

The module-global :class:`KernelStats` mirrors the parallel pool's
``pool_recovery()`` idiom: core builds, table cache hits and
per-reason fallback counts accumulated process-wide, surfaced on the
CLI ``simulate:`` line and the service ``/metrics`` document.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Union

import numpy as np

from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.kernel.build import (
    KernelBuildError,
    cached_object,
    cached_tables,
    compile_kernel,
    core_fingerprint,
    generate_kernel_source,
    load_kernel,
    store_tables,
)
from repro.runtime.engine.kernel.lower import (
    KernelUnsupported,
    LoweredPlan,
    RkPlan,
    check_tables,
    lower_plan,
    plan_fingerprint,
)
from repro.runtime.engine.simulator import BatchResult, BatchSimulator
from repro.scheduling.fschedule import FSchedule


@dataclass
class KernelStats:
    """Process-wide counters of core builds, table hits and fallbacks.

    ``compiles`` counts compiler invocations (the core is built once
    per cache), ``cache_hits`` plans whose lowered tables came from
    the in-process memo or the on-disk ``.npz`` cache instead of being
    lowered, and ``fallbacks`` maps a degradation reason
    (``"no-compiler"``, ``"compile-failed"``, ``"load-failed"``,
    ``"unsupported-utility"``, ``"unsupported-plan"``, ``"chaos"``)
    to how many simulator constructions degraded to the NumPy engine
    for it.  ``oracle_scenarios`` counts per-scenario oracle replays
    out of otherwise kernel-run batches (the same residual the NumPy
    engine reports as ``n_fallback``).  Updates take a per-object
    lock (shard threads and service requests share the global one);
    reads are plain attribute reads.
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


#: The loaded core's ``rk_run``, once per process.
_CORE = None

#: Lowered tables by plan fingerprint.
_TABLES: Dict[str, LoweredPlan] = {}

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


def _load_core():
    """The core's ``rk_run``, building and loading it on first use."""
    global _CORE
    if _CORE is None:
        source = generate_kernel_source()
        fingerprint = core_fingerprint(source)
        so_path = cached_object(fingerprint)
        if so_path is None:
            so_path = compile_kernel(source, fingerprint)
            kernel_stats().add("compiles")
        lib = load_kernel(so_path)
        size = lib.rk_plan_size
        size.restype = ctypes.c_int64
        size.argtypes = []
        if size() != ctypes.sizeof(RkPlan):
            raise KernelBuildError(
                "load-failed",
                f"core {fingerprint} has a {size()}-byte rk_plan, "
                f"expected {ctypes.sizeof(RkPlan)}",
            )
        run = lib.rk_run
        run.restype = ctypes.c_int64
        run.argtypes = [
            ctypes.POINTER(RkPlan), ctypes.c_int64, ctypes.c_int64
        ] + [
            np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")
            for dtype in (np.int64, np.int64, np.float64, np.uint8,
                          np.int64, np.int64, np.int64, np.uint8)
        ]
        _CORE = run
    return _CORE


def _plan_tables(simulator: BatchSimulator) -> LoweredPlan:
    """The lowered tables of ``simulator``'s plan."""
    fingerprint = plan_fingerprint(simulator.capp, simulator.ctree)
    lowered = _TABLES.get(fingerprint)
    if lowered is not None:
        kernel_stats().add("cache_hits")
        return lowered
    arrays = check_tables(cached_tables(fingerprint))
    if arrays is not None:
        kernel_stats().add("cache_hits")
    else:
        arrays = lower_plan(
            simulator.capp, simulator.ctree, simulator._tables
        )
        store_tables(fingerprint, arrays)
    lowered = _TABLES[fingerprint] = LoweredPlan(arrays)
    return lowered


class KernelSimulator:
    """C-core executor of one plan, bit-identical to the oracle.

    Wraps an eagerly-built :class:`BatchSimulator` — sharing its
    compiled application/tree, decision tables and oracle — and routes
    whole batches through the core over the plan's lowered tables when
    both can be had.  ``engine_used`` reports which core actually runs
    (``"kernel"`` or ``"batched"`` after a counted degradation).
    """

    def __init__(self, app: Application, plan: Union[QSTree, FSchedule]):
        self._batched = BatchSimulator(app, plan)
        self.app = app
        self.capp = self._batched.capp
        self.ctree = self._batched.ctree
        self._run = None
        self._lowered: Optional[LoweredPlan] = None
        self.fallback_reason: Optional[str] = None
        try:
            with _LOCK:
                run = _load_core()
                self._lowered = _plan_tables(self._batched)
            self._run = run
        except (KernelUnsupported, KernelBuildError) as exc:
            self.fallback_reason = exc.reason
            kernel_stats().count_fallback(exc.reason)

    @property
    def engine_used(self) -> str:
        return "batched" if self._run is None else "kernel"

    def run_batch(self, batch: ScenarioBatch) -> BatchResult:
        """Execute every scenario of ``batch``; see :class:`BatchResult`."""
        if self._run is None:
            return self._batched.run_batch(batch)
        if batch.names != self.capp.names:
            # Delegate for the NumPy engine's exact validation error.
            return self._batched.run_batch(batch)
        n = batch.n_scenarios
        width = batch.max_attempts
        durations = np.ascontiguousarray(batch.durations, dtype=np.int64)
        faults = np.ascontiguousarray(batch.fault_counts, dtype=np.int64)
        result = BatchResult(
            utilities=np.zeros(n, dtype=np.float64),
            deadline_miss=np.zeros(n, dtype=bool),
            switch_counts=np.zeros(n, dtype=np.int64),
            faults_observed=np.zeros(n, dtype=np.int64),
            switch_chains=[()] * n,
            fast_path=np.zeros(n, dtype=bool),
        )
        chains = np.zeros((n, self._lowered.chain_cap), dtype=np.int64)
        flagged = np.zeros(n, dtype=np.uint8)
        rc = self._run(
            ctypes.byref(self._lowered.struct),
            n,
            width,
            durations,
            faults,
            result.utilities,
            result.deadline_miss.view(np.uint8),
            result.switch_counts,
            result.faults_observed,
            chains,
            flagged,
        )
        if rc != 0:  # pragma: no cover - guarded by ScenarioBatch
            return self._batched.run_batch(batch)
        result.fast_path[:] = flagged == 0
        counts = result.switch_counts.tolist()
        for i in np.flatnonzero(result.switch_counts).tolist():
            result.switch_chains[i] = tuple(chains[i, : counts[i]].tolist())
        residual = np.flatnonzero(flagged)
        if residual.size:
            kernel_stats().add("oracle_scenarios", int(residual.size))
            for i in residual:
                self._batched._run_oracle(batch, int(i), result)
        return result
