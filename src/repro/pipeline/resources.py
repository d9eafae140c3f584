"""Experiment-scoped worker-pool ownership.

Before the pipeline existed, every experiment driver paid worker-pool
spawn costs per *application*: the fast synthesis engine forked a
fresh candidate pool for each tree build, and each
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator` forked its
own scenario-sharding pool.  A paper-scale sweep (hundreds of
applications) re-spawned workers hundreds of times for no reason —
the workers' code never changes, only the application context they
hold.

:class:`ResourceManager` closes that gap: it owns **one** synthesis
:class:`~repro.runtime.engine.parallel.TaskPool` and **one**
evaluation pool for the whole experiment run.  Pool workers hold no
application state of their own: each map ships a
:class:`~repro.runtime.engine.parallel.WorkerContext` (the
application, the config, and — for evaluation — the names of the
published shared-memory scenario segments) that a worker builds once
per context token, so the next application simply arrives with a new
token.  A borrowed pool runs exactly the code a pool the synthesis
engine or the evaluator spawns for itself runs, so results are
unchanged.

Pools are keyed by worker count, created lazily, and live until
:meth:`ResourceManager.close` (or context-manager exit).  A manager
with ``jobs == 1`` everywhere never spawns anything.

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
                tree = ftqs(app, root, config, jobs=4,
                            pool=resources.synthesis_pool(4))
                with resources.evaluator(
                    app, execution="kernel@processes:4"
                ) as evaluator:
                    evaluator.evaluate(tree)

    Exactly one synthesis pool and one evaluation pool (per worker
    count) are spawned for the whole block, no matter how many
    applications pass through; exit closes the pools and the store's
    backend.
    """

    def __init__(
        self,
        store: Optional["TreeStore"] = None,
        *,
        task_timeout: Optional[float] = None,
        task_retries: int = 2,
    ) -> None:
        self._synthesis_pools: Dict[int, "TaskPool"] = {}
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
    def _shared_pool(self, cache: Dict[int, "TaskPool"], jobs: int):
        if jobs < 1:
            raise RuntimeModelError(f"jobs must be positive, got {jobs}")
        with self._lock:
            pool = cache.get(jobs)
            if pool is None:
                pool = self._spawn_pool(jobs)
                cache[jobs] = pool
            return pool

    def _spawn_pool(self, jobs: int):
        """Spawn one shared pool (separate for spawn-count tests)."""
        from repro.runtime.engine.parallel import TaskPool

        return TaskPool(
            jobs,
            task_timeout=self.task_timeout,
            task_retries=self.task_retries,
        )

    def synthesis_pool(self, jobs: int) -> Optional["TaskPool"]:
        """The shared FTQS candidate-evaluation pool (``None`` for
        ``jobs == 1`` — single-job synthesis never needs workers)."""
        if jobs == 1:
            return None
        return self._shared_pool(self._synthesis_pools, jobs)

    def evaluation_pool(self, jobs: int) -> "TaskPool":
        """The shared Monte-Carlo scenario-sharding pool."""
        return self._shared_pool(self._evaluation_pools, jobs)

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
            pools = [
                pool
                for cache in (self._synthesis_pools, self._evaluation_pools)
                for pool in cache.values()
            ]
            self._synthesis_pools.clear()
            self._evaluation_pools.clear()
        for pool in pools:
            pool.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "ResourceManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
