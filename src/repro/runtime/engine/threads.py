"""GIL-free threaded sharding against the C kernel core.

:class:`ThreadedEvaluator` is the ``mode="threads"`` executor behind
:class:`~repro.execution.ExecutionConfig`: it splits the scenario
index range into the same contiguous shards as the process executor
(:func:`~repro.runtime.engine.parallel.shard_bounds`) and runs them on
a persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  The
kernel's ``ctypes`` entry point releases the GIL for the whole batch
call, so the shard threads genuinely overlap on multiple cores — with
none of the ``multiprocessing`` machinery (no fork, no shared-memory
publication, no pickling): threads slice the parent's packed
:class:`ScenarioBatch` arrays as views.

Shard tasks and the range-order merge are the process executor's own
(:func:`~repro.runtime.engine.parallel.simulate_rows`: a shard's
utilities arrays and integer sums, which
:func:`~repro.runtime.engine.parallel.merge_shard_outcomes` joins), so
outcomes are **bit-identical** to an inline ``workers=1`` run for any
thread count (``tests/test_threaded_executor.py`` gates it).

Threading only pays off when the GIL is actually released, so every
evaluation that cannot run threaded **falls back to process sharding**
with a counted reason (:func:`thread_stats`):

* ``engine-not-kernel`` — the reference engine holds the GIL;
  process sharding is the right tool for it;
* ``kernel-unavailable`` — no C compiler / kernel build failure; the
  kernel simulator itself would degrade to the (GIL-bound) oracle,
  annulling the point of threads;
* ``chaos`` — an injected ``thread-fail@N`` fault from the chaos DSL
  (:mod:`repro.pipeline.chaos`).

Each ``evaluate`` builds the plan's one :class:`KernelSimulator` in
the calling thread, which keeps the kernel engine's compile/cache-hit
counters deterministic, and every shard thread runs it: the C core is
re-entrant and only reads the plan's lowered tables, and the oracle
replay of residual scenarios keeps its state in locals and writes only
into the calling shard's own result.  The executor keeps no plan and
no simulator between evaluations; re-evaluating a plan finds its
tables in the kernel's content-keyed table memo.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.errors import RuntimeModelError
from repro.runtime.engine.parallel import (
    ShardedExecutor,
    _chaos_plan,
    merge_shard_outcomes,
    shard_bounds,
    simulate_rows,
)


@dataclass
class ThreadStats:
    """Counters of the threaded executor's activity.

    ``evaluations`` counts plan evaluations that actually ran on the
    thread pool, ``shards`` the shard tasks they dispatched, and
    ``fallbacks`` maps each fallback reason (``engine-not-kernel``,
    ``kernel-unavailable``, ``chaos``) to how many evaluations it
    re-routed to process sharding.  Updates take a per-object lock
    (concurrent service requests share the global one); reads are
    plain attribute reads.
    """

    evaluations: int = 0
    shards: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False,
    )

    @property
    def n_fallbacks(self) -> int:
        return sum(self.fallbacks.values())

    def count_evaluation(self, shards: int) -> None:
        with self._lock:
            self.evaluations += 1
            self.shards += shards

    def count_fallback(self, reason: str) -> None:
        with self._lock:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def reset(self) -> None:
        with self._lock:
            self.evaluations = 0
            self.shards = 0
            self.fallbacks.clear()

    def snapshot(self) -> "ThreadStats":
        with self._lock:
            return replace(self, fallbacks=dict(self.fallbacks))

    def as_dict(self) -> Dict[str, object]:
        return {
            "evaluations": self.evaluations,
            "shards": self.shards,
            "fallbacks": dict(self.fallbacks),
        }

    def summary(self) -> str:
        parts = [
            f"{self.evaluations} threaded evaluation(s)",
            f"{self.shards} shard(s)",
        ]
        if self.fallbacks:
            reasons = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(self.fallbacks.items())
            )
            parts.append(f"fallbacks {{{reasons}}}")
        return " / ".join(parts)


#: Process-wide counters (the CLI summary line and the service's
#: ``/metrics`` read these; :func:`reset_thread_stats` scopes them to
#: one invocation).
_GLOBAL_STATS = ThreadStats()


def _reset_lock() -> None:
    """Give a forked child a fresh lock: one another parent thread held
    at the fork would never be released in the child."""
    _GLOBAL_STATS._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock)


def thread_stats() -> ThreadStats:
    """The process-wide threaded-executor counters (live object)."""
    return _GLOBAL_STATS


def reset_thread_stats() -> None:
    """Zero the process-wide counters (start of a CLI invocation)."""
    _GLOBAL_STATS.reset()


class ThreadedEvaluator(ShardedExecutor):
    """Deterministic thread-sharded Monte-Carlo evaluation.

    Constructed by :meth:`MonteCarloEvaluator.executor` for
    ``mode="threads"`` configs; threads slice the source's packed
    scenario batches as views (see
    :class:`~repro.runtime.engine.parallel.ShardedExecutor`).
    """

    def __init__(self, source, execution) -> None:
        super().__init__(source, execution)
        if self.execution.mode != "threads":
            raise RuntimeModelError(
                f"ThreadedEvaluator needs mode='threads', got "
                f"{self.execution.spec()!r}"
            )
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.execution.workers,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def close(self) -> None:
        """Shut the thread pool down."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _process_fallback(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Re-route one evaluation through process sharding (the
        source caches that executor alongside this one)."""
        config = replace(self.execution, mode="processes")
        return self._source().executor(config).evaluate(plan)

    def evaluate(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Run all scenario sets against ``plan`` across the threads."""
        stats = thread_stats()
        chaos = _chaos_plan()
        if chaos is not None:
            try:
                chaos.thread_eval()
            except RuntimeError:
                stats.count_fallback("chaos")
                return self._process_fallback(plan)
        if self.execution.engine != "kernel":
            stats.count_fallback("engine-not-kernel")
            return self._process_fallback(plan)
        bounds = shard_bounds(self.n_scenarios, self.execution.workers)
        if len(bounds) == 1:
            return self._inline(plan)
        from repro.runtime.engine.kernel import KernelSimulator

        simulator = KernelSimulator(self.app, plan)
        if simulator.engine_used != "kernel":
            stats.count_fallback("kernel-unavailable")
            return self._process_fallback(plan)
        batches = self._source().scenarios
        stats.count_evaluation(len(bounds))
        pool = self._ensure_pool()
        futures = [
            pool.submit(simulate_rows, simulator, batches, lo, hi)
            for lo, hi in bounds
        ]
        shards = [future.result() for future in futures]
        return merge_shard_outcomes(self.fault_counts, shards)


__all__ = [
    "ThreadedEvaluator",
    "ThreadStats",
    "thread_stats",
    "reset_thread_stats",
]
