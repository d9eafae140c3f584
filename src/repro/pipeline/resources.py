"""Experiment-scoped worker-pool ownership.

Without it, every
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator` of a sweep
forks its own scenario-sharding pool: a paper-scale sweep (hundreds
of applications) re-spawns workers hundreds of times for no reason —
the workers' code never changes, only the application context they
hold.

:class:`ResourceManager` closes that gap: it owns **one** evaluation
:class:`~repro.runtime.engine.parallel.TaskPool` (per worker count)
for the whole experiment run.  Pool workers hold no application state
of their own: each map ships a
:class:`~repro.runtime.engine.parallel.WorkerContext` (the
application, the engine and the names of the published shared-memory
scenario segments) that a worker builds once per context token, so
the next application simply arrives with a new token.  A borrowed
pool runs exactly the code a pool the evaluator spawns for itself
runs, so results are unchanged.

Pools are keyed by worker count, created lazily, and live until
:meth:`ResourceManager.close` (or context-manager exit).  A run that
never shards an evaluation over processes never spawns anything.

The manager can also own the run's optional
:class:`~repro.pipeline.store.TreeStore`: backends with real
connections (Redis) are then released deterministically with the
pools, and :class:`~repro.pipeline.runner.ExperimentRunner` picks the
store up automatically when the caller does not pass one explicitly.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.errors import RuntimeModelError


class ResourceManager:
    """Owns the worker pools (and optional tree store) of one run.

    Use as a context manager::

        with ResourceManager(store=store) as resources:
            for app, root in applications:
                tree = ftqs(app, root, config)
                with resources.evaluator(
                    app, execution="kernel@processes:4"
                ) as evaluator:
                    evaluator.evaluate(tree)

    Exactly one evaluation pool (per worker count) is spawned for the
    whole block, no matter how many applications pass through; exit
    closes the pools and the store's backend.
    """

    def __init__(
        self,
        store: Optional["TreeStore"] = None,
        *,
        task_timeout: Optional[float] = None,
        task_retries: int = 2,
    ) -> None:
        self._evaluation_pools: Dict[int, "TaskPool"] = {}
        # Acquisition and close are lock-guarded: the manager is shared
        # across `repro serve` handler threads, and a double-spawned
        # pool would leak worker processes.
        self._lock = threading.Lock()
        self.store = store
        #: Fault-tolerance knobs handed to every owned pool: per-task
        #: deadline (seconds; None = wait forever) and how many times a
        #: task may lose its worker before running in-process.
        self.task_timeout = task_timeout
        self.task_retries = task_retries

    # ------------------------------------------------------------------
    # Pool acquisition
    # ------------------------------------------------------------------
    def evaluation_pool(self, jobs: int) -> "TaskPool":
        """The shared Monte-Carlo scenario-sharding pool."""
        if jobs < 1:
            raise RuntimeModelError(f"jobs must be positive, got {jobs}")
        with self._lock:
            pool = self._evaluation_pools.get(jobs)
            if pool is None:
                pool = self._spawn_pool(jobs)
                self._evaluation_pools[jobs] = pool
            return pool

    def _spawn_pool(self, jobs: int):
        """Spawn one shared pool (separate for spawn-count tests)."""
        from repro.runtime.engine.parallel import TaskPool

        return TaskPool(
            jobs,
            task_timeout=self.task_timeout,
            task_retries=self.task_retries,
        )

    # ------------------------------------------------------------------
    # Evaluator construction
    # ------------------------------------------------------------------
    def evaluator(self, app, **kwargs) -> "MonteCarloEvaluator":
        """A :class:`MonteCarloEvaluator` wired to the shared pools.

        Accepts the evaluator's keyword arguments (``n_scenarios``,
        ``fault_counts``, ``seed``, ``execution``).  Closing the
        returned evaluator releases its scenario segments but leaves
        the shared pools running for the next application.
        """
        from repro.evaluation.montecarlo import MonteCarloEvaluator

        return MonteCarloEvaluator(app, resources=self, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate every owned pool and close the owned store's
        backend (idempotent; the manager may be used again afterwards
        — pools respawn lazily)."""
        with self._lock:
            pools = list(self._evaluation_pools.values())
            self._evaluation_pools.clear()
        for pool in pools:
            pool.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "ResourceManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
