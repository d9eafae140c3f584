"""The shared experiment loop: generate → synthesize → evaluate → rows.

Every paper experiment (Table 1, Fig. 9, the cruise controller, the
sweeps, the ablations) is the same pipeline instantiated with a
different spec: draw applications from a workload grid, build the
FTSS root and the FTQS tree(s), replay paired Monte-Carlo scenario
sets, and reduce the outcomes to rows.  Before this module the five
drivers each hand-rolled that loop with ad-hoc evaluator scoping and
no reuse of synthesized trees; :class:`ExperimentRunner` factors the
loop's *services* out so a driver is reduced to its spec:

* a config dataclass (the workload grid + evaluation scale),
* a ``_run`` body expressing the experiment's structure through the
  base-class services below,
* a row type + formatter.

The services guarantee the resource behaviour the drivers used to
implement by hand, and add what they could not:

* :meth:`candidates` — the generate-workloads loop (shared RNG
  discipline, FTSS admission on the compiled list scheduler of
  :func:`~repro.scheduling.ftss.ftss`, attempt caps);
* :meth:`synthesize` — FTQS construction through the optional
  content-addressed :class:`~repro.pipeline.store.TreeStore`
  (identical inputs skip the build);
* :meth:`evaluator` — paired Monte-Carlo evaluators wired to the
  manager's shared evaluation pool, scoped with ``with`` so scenario
  segments are released per application while worker processes
  persist for the whole run.

Driver outputs are **byte-identical** to the pre-pipeline drivers
(``tests/test_pipeline_differential.py`` pins every row against
golden captures): the RNG draw order, evaluator seeds and float
accumulation orders are preserved exactly.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.execution import DEFAULT_ENGINE, ExecutionConfig
from repro.pipeline.resources import ResourceManager
from repro.pipeline.store import TreeStore
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.scheduling.ftss import ftss
from repro.workloads.suite import WorkloadSpec, generate_application


def synthesize_tree(
    app,
    root,
    config: FTQSConfig,
    *,
    stats=None,
    store: Optional[TreeStore] = None,
):
    """Store-aware FTQS construction (the pipeline's core).

    A store hit returns the cached tree without building (counted on
    ``stats.store_hits``; ``trees_built`` stays untouched, which is
    how a fully-cached run reports zero builds).  A miss builds the
    tree with :func:`~repro.quasistatic.ftqs.ftqs`, then persists it.
    """
    if store is not None:
        cached = store.get(app, root, config)
        if cached is not None:
            if stats is not None:
                stats.store_hits += 1
            return cached
        if stats is not None:
            stats.store_misses += 1
    tree = ftqs(app, root, config, stats=stats)
    if store is not None:
        store.put(app, root, config, tree)
    return tree


class ExperimentRunner:
    """Base class of the five experiment drivers.

    Parameters
    ----------
    execution:
        Monte-Carlo routing — an
        :class:`~repro.execution.ExecutionConfig` or spec string like
        ``"kernel@threads:8"``; defaults to inline ``kernel``.
    stats:
        Optional :class:`~repro.quasistatic.synthesis.SynthesisStats`
        collecting the run's FTQS construction and store counters.
    resources:
        The run's :class:`ResourceManager`.  ``None`` (the default)
        creates an owned manager that is closed when :meth:`run`
        returns; passing one in shares its pools across several runner
        invocations (e.g. both sweeps of ``repro experiment sweeps``)
        and leaves its lifecycle to the caller.
    store:
        Optional :class:`TreeStore` (any backend — filesystem, memory
        LRU or Redis); identical synthesis inputs then reload instead
        of rebuilding.  When omitted, a store owned by the passed-in
        ``resources`` manager is picked up automatically.
    checkpoint:
        Optional
        :class:`~repro.pipeline.checkpoint.ExperimentCheckpoint`.
        Every evaluator the runner hands out then journals its
        completed ``compare``/``evaluate`` units durably, and a
        resumed run decodes journaled units instead of re-simulating
        (byte-identical rows; the journal's lifecycle belongs to the
        caller, so several runner invocations — e.g. both sweeps —
        can share one).
    """

    #: The drivers' default routing (the C kernel core, inline).
    DEFAULT_EXECUTION = ExecutionConfig(engine=DEFAULT_ENGINE)

    def __init__(
        self,
        *,
        execution=None,
        stats=None,
        resources: Optional[ResourceManager] = None,
        store: Optional[TreeStore] = None,
        checkpoint=None,
    ):
        self.execution = (
            self.DEFAULT_EXECUTION
            if execution is None
            else ExecutionConfig.coerce(execution)
        )
        self.stats = stats
        if store is None and resources is not None:
            store = resources.store
        self.store = store
        self.checkpoint = checkpoint
        self._owns_resources = resources is None
        self.resources = (
            resources if resources is not None else ResourceManager()
        )

    # ------------------------------------------------------------------
    # Shared services
    # ------------------------------------------------------------------
    def candidates(
        self,
        spec: WorkloadSpec,
        rng: np.random.Generator,
        max_attempts: Optional[int] = None,
    ) -> Iterator[Tuple[object, object]]:
        """Generate ``(app, FTSS root)`` pairs from the workload grid.

        The root is :func:`~repro.scheduling.ftss.ftss` of the
        application (the compiled list scheduler); an application
        without one is rejected and the next one drawn.

        Draws applications from ``rng`` until the consumer stops
        iterating (or ``max_attempts`` total draws, counting the ones
        FTSS rejects — the cap the bounded drivers used).  Preserves
        the drivers' RNG discipline exactly: one
        :func:`generate_application` call per attempt, in order.
        """
        attempts = 0
        while max_attempts is None or attempts < max_attempts:
            attempts += 1
            app = generate_application(spec, rng=rng)
            root = ftss(app)
            if root is None:
                continue
            yield app, root

    def synthesize(self, app, root, config: FTQSConfig):
        """Build (or reload) the FTQS tree for one application."""
        return synthesize_tree(
            app,
            root,
            config,
            stats=self.stats,
            store=self.store,
        )

    def evaluator(self, app, **kwargs):
        """A paired Monte-Carlo evaluator on the shared worker pools.

        Scope it with ``with`` (or ``close()``): exit releases the
        application's scenario segments while the run-wide worker
        processes live on in the :class:`ResourceManager`.

        With a :attr:`checkpoint`, the evaluator is wrapped in a
        :class:`~repro.pipeline.checkpoint.JournalingEvaluator`:
        completed units are journaled durably, already-journaled ones
        are decoded instead of re-simulated, and the underlying
        evaluator (with its eager scenario sampling) is only built on
        the first journal miss.
        """
        kwargs.setdefault("execution", self.execution)
        if self.checkpoint is None:
            return self.resources.evaluator(app, **kwargs)
        from repro.pipeline.checkpoint import JournalingEvaluator

        return JournalingEvaluator(
            self.checkpoint,
            app,
            factory=lambda: self.resources.evaluator(app, **kwargs),
            n_scenarios=kwargs.get("n_scenarios", 200),
            fault_counts=kwargs.get("fault_counts"),
            seed=kwargs.get("seed", 1),
        )

    # ------------------------------------------------------------------
    # Template method
    # ------------------------------------------------------------------
    def _run(self):
        raise NotImplementedError

    def run(self):
        """Execute the experiment; rows as the driver defines them.

        Owned resources (the default) are closed on the way out, so a
        plain ``SomeRunner(...).run()`` leaks no worker pools.
        """
        try:
            return self._run()
        finally:
            if self._owns_resources:
                self.resources.close()
