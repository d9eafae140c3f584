"""Monte-Carlo evaluation of schedules and quasi-static trees (§6).

The paper evaluates every approach on 20,000 execution scenarios per
fault count (0, 1, 2, 3 faults), with actual execution times drawn
uniformly from [BCET, WCET].  Crucially, the *same* scenarios are
replayed against every approach — the comparison is paired — which is
what :class:`MonteCarloEvaluator` implements: scenarios are generated
once per (application, fault count) and each plan runs them all.  The
sets are sampled straight into arrays, one
:class:`~repro.runtime.engine.batch.ScenarioBatch` per fault count,
all sharing one execution-time array.

Every engine replays a scenario set the same way: one simulator per
plan, whose ``run_batch`` resolves a whole
:class:`~repro.runtime.engine.batch.ScenarioBatch` per fault count
into arrays, which :meth:`EvaluationOutcome.of` aggregates as they are.
The engine picks the simulator (:func:`simulator_for`):

* ``reference`` — a
  :class:`~repro.runtime.engine.simulator.BatchSimulator`, which
  replays each scenario on the pure-Python
  :class:`~repro.runtime.online.OnlineScheduler` event loop (the
  behavioral oracle), building it from the batch arrays on access;
* ``kernel`` — the
  :class:`~repro.runtime.engine.kernel.KernelSimulator`, which runs
  the plan's lowered decision tables through one prebuilt C core over
  whole batches and is bit-identical to the oracle (see
  ``tests/test_engine_differential.py``) while orders of magnitude
  faster; without a C compiler or a usable artifact cache it falls
  back to that same oracle replay, with a counted reason.

Engine and parallelism are routed by one
:class:`~repro.execution.ExecutionConfig` (``execution=`` — an
instance or a spec string like ``"kernel@threads:8"``):
``mode="processes"`` shards the scenario range across
``multiprocessing`` workers via
:class:`~repro.runtime.engine.parallel.ParallelEvaluator`,
``mode="threads"`` across a GIL-free thread pool via
:class:`~repro.runtime.engine.threads.ThreadedEvaluator`.  Each shard
builds the plan's simulator and runs its rows through ``run_batch``
like an inline evaluation, and the shards' arrays are concatenated in
range order, so sharding is deterministic and outcome-preserving for
any mode and worker count.  No layer here caches a plan: a plan's
lowered tables outlive an evaluation only in the kernel's in-process
memo, keyed by the plan's content.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ModelError, RuntimeModelError
from repro.execution import ExecutionConfig
from repro.model.application import Application
from repro.model.process import is_integer
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.simulator import BatchSimulator, BatchTotals
from repro.scheduling.fschedule import FSchedule

Plan = Union[QSTree, FSchedule]


def simulator_for(engine: str, app: Application, plan: Plan) -> BatchSimulator:
    """The simulator replaying ``plan`` on ``engine``: the oracle
    replay of :class:`BatchSimulator` for ``reference``, else the
    kernel's (which degrades to that replay on its own)."""
    if engine == "reference":
        return BatchSimulator(app, plan)
    from repro.runtime.engine.kernel import KernelSimulator

    return KernelSimulator(app, plan)


@dataclass
class EvaluationOutcome:
    """One plan's results on one scenario set: its :data:`AGGREGATES`
    and ``utilities``, a read-only float64 array of the per-scenario
    utilities (``None`` when decoded from a checkpoint journal)."""

    mean_utility: float
    n_scenarios: int
    deadline_misses: int
    mean_switches: float
    mean_faults: float
    fallbacks: int
    utilities: Optional[np.ndarray] = field(default=None, repr=False)

    def __eq__(self, other) -> bool:
        """Equal aggregates and bit-identical ``utilities`` (``None``
        equals only ``None``)."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def _identity(self) -> tuple:
        bits = None if self.utilities is None else self.utilities.tobytes()
        return tuple(getattr(self, name) for name in AGGREGATES) + (bits,)

    @property
    def ok(self) -> bool:
        """True when no simulated cycle missed a hard deadline."""
        return self.deadline_misses == 0

    @property
    def fast_path_share(self) -> float:
        """Fraction of scenarios resolved without the reference loop.

        1.0 for a run the C core resolved entirely, 0.0 for the
        reference engine or a degraded kernel; drops in between flag
        fast-path coverage regressions.
        """
        return 1.0 - self.fallbacks / self.n_scenarios

    @classmethod
    def of(cls, parts: Sequence[BatchTotals]) -> "EvaluationOutcome":
        """The outcome of one fault count's scenario set, run as
        ``parts`` in scenario order (one batch inline, one per shard).

        Raises :class:`RuntimeModelError` on an empty scenario set —
        the means are undefined, and zeros would poison every
        normalization downstream.
        """
        count = sum(len(part.utilities) for part in parts)
        if count == 0:
            raise RuntimeModelError(
                "cannot aggregate an empty scenario set; every fault "
                "count needs at least one scenario"
            )
        utilities = parts[0].utilities if len(parts) == 1 else (
            np.concatenate([part.utilities for part in parts])
        )
        utilities.flags.writeable = False
        return cls(
            mean_utility=float(np.mean(utilities)),
            n_scenarios=count,
            deadline_misses=sum(part.deadline_misses for part in parts),
            mean_switches=sum(part.switches for part in parts) / count,
            mean_faults=sum(part.faults for part in parts) / count,
            fallbacks=sum(part.fallbacks for part in parts),
            utilities=utilities,
        )


#: Every outcome field but ``utilities`` (ints and floats; all a
#: checkpoint journal stores).
AGGREGATES = tuple(
    f.name for f in fields(EvaluationOutcome) if f.name != "utilities"
)


class MonteCarloEvaluator:
    """Paired Monte-Carlo comparison of scheduling approaches.

    Parameters
    ----------
    app:
        The application under evaluation.
    n_scenarios:
        Scenarios per fault count (the paper uses 20,000; smaller
        values keep the benches fast and the flag
        ``--full-scale`` restores the paper's number).
    fault_counts:
        Which fault counts to evaluate (default 0..k); must be
        non-empty, non-negative and free of duplicates.
    seed:
        Seed of the scenario sampler.
    execution:
        An :class:`~repro.execution.ExecutionConfig` or spec string
        (``"reference"``, ``"kernel@threads:8"``,
        ``"kernel@processes:4"``) routing engine and parallelism;
        defaults to the inline reference engine.  Results are
        identical for every config, only speed differs.
    resources:
        An optional :class:`repro.pipeline.resources.ResourceManager`.
        When set, sharded evaluation borrows the manager's shared
        worker pool (one spawn for the whole experiment run) instead
        of spawning a pool per evaluator; :meth:`close` then releases
        only this evaluator's shared-memory segments.
    """

    #: The historical default routing (the oracle loop, inline).
    DEFAULT_EXECUTION = ExecutionConfig(engine="reference")

    def __init__(
        self,
        app: Application,
        n_scenarios: int = 200,
        fault_counts: Optional[Sequence[int]] = None,
        seed: int = 1,
        execution: Union[None, str, ExecutionConfig] = None,
        resources=None,
    ):
        if not is_integer(n_scenarios) or n_scenarios < 1:
            raise RuntimeModelError(
                "need at least one scenario; the scenario count must be an "
                f"integer, got {n_scenarios!r}"
            )
        self.app = app
        self.n_scenarios = int(n_scenarios)
        self.seed = seed
        self.execution = (
            self.DEFAULT_EXECUTION
            if execution is None
            else ExecutionConfig.coerce(execution)
        )
        self.resources = resources
        self.fault_counts = (
            list(fault_counts)
            if fault_counts is not None
            else list(range(app.k + 1))
        )
        if not self.fault_counts:
            raise RuntimeModelError(
                "need at least one fault count to evaluate"
            )
        for faults in self.fault_counts:
            if not is_integer(faults) or faults < 0:
                raise ModelError(
                    "fault count must be an integer and non-negative, "
                    f"got {faults!r}"
                )
        if len(set(self.fault_counts)) != len(self.fault_counts):
            # A repeated count would be sampled twice, the second draw
            # silently replacing the first under the same key.
            raise RuntimeModelError(
                f"duplicate fault counts in {self.fault_counts}"
            )
        # Couple the fault-count axes: the i-th scenario of every fault
        # count shares the same execution-time draws, differing only in
        # the fault pattern.  Cross-fault-count comparisons ("utility
        # drops by x% under one fault") are then paired rather than
        # independent, which removes most of the sampling noise.  The
        # batches are the only store of the scenario sets: every engine
        # reads their arrays, the oracle replay builds scenarios from
        # them on access.
        self.scenarios: Dict[int, ScenarioBatch] = ScenarioBatch.draw(
            app, self.n_scenarios, self.fault_counts,
            np.random.default_rng(seed),
        )
        # Persistent sharded executors, one per ExecutionConfig: the
        # worker pool / thread pool and shared-memory scenario
        # segments survive across evaluate()/compare() calls (see
        # ParallelEvaluator and ThreadedEvaluator).
        self._executors: Dict[ExecutionConfig, object] = {}

    # ------------------------------------------------------------------
    # Public evaluation API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        plan: Plan,
        execution: Union[None, str, ExecutionConfig] = None,
    ) -> Dict[int, EvaluationOutcome]:
        """Run all scenario sets against ``plan``.

        Returns one :class:`EvaluationOutcome` per fault count.
        ``execution`` overrides the evaluator-wide routing for this
        call (the benches use this to time several engines on the same
        scenario sets).
        """
        config = (
            self.execution
            if execution is None
            else ExecutionConfig.coerce(execution)
        )
        if config.workers > 1 and config.mode != "inline":
            if config.mode == "processes" and config.engine == "kernel":
                # Build the core parent-side, so every worker inherits
                # it (or loads it from the artifact cache) instead of
                # racing to build it; each worker lowers the plan
                # itself.  (The threaded executor builds the plan's
                # one simulator in the calling thread.)
                from repro.runtime.engine.kernel.dispatch import (
                    prepare_core,
                )

                prepare_core()
            return self.executor(config).evaluate(plan)
        simulator = simulator_for(config.engine, self.app, plan)
        return {
            faults: EvaluationOutcome.of(
                [simulator.run_batch(self.scenarios[faults]).totals()]
            )
            for faults in self.fault_counts
        }

    def compare(
        self, plans: Mapping[str, Plan]
    ) -> Dict[str, Dict[int, EvaluationOutcome]]:
        """Evaluate several named plans on the same scenario sets.

        With a sharded routing every plan reuses one persistent worker
        (or thread) pool and, for processes, one set of shared-memory
        scenario segments.
        """
        return {name: self.evaluate(plan) for name, plan in plans.items()}

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    def executor(self, execution: Union[str, ExecutionConfig]):
        """The persistent sharded executor for one
        :class:`~repro.execution.ExecutionConfig` (or spec string).

        ``mode="threads"`` configs get a
        :class:`~repro.runtime.engine.threads.ThreadedEvaluator`, every
        other config a
        :class:`~repro.runtime.engine.parallel.ParallelEvaluator`;
        each config's executor (its worker/thread pool and scenario
        segments) is cached for the evaluator's lifetime.
        """
        config = ExecutionConfig.coerce(execution)
        executor = self._executors.get(config)
        if executor is None:
            if config.mode == "threads":
                from repro.runtime.engine.threads import ThreadedEvaluator

                executor = ThreadedEvaluator(self, config)
            else:
                from repro.runtime.engine.parallel import ParallelEvaluator

                pool = None
                if self.resources is not None and config.workers > 1:
                    pool = self.resources.evaluation_pool(config.workers)
                executor = ParallelEvaluator(self, config, pool=pool)
            self._executors[config] = executor
        return executor

    def close(self) -> None:
        """Release any worker/thread pools and shared-memory segments."""
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def __enter__(self) -> "MonteCarloEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def normalized_to(
    results: Mapping[str, Mapping[int, EvaluationOutcome]],
    reference: str,
    reference_faults: int = 0,
) -> Dict[str, Dict[int, float]]:
    """Mean utilities normalized to one approach/fault-count cell (%).

    The paper's Fig. 9 normalizes everything to FTQS with no faults;
    Table 1 normalizes to FTSS.  Returns percentages.
    """
    if reference not in results:
        raise RuntimeModelError(f"unknown reference approach {reference!r}")
    if reference_faults not in results[reference]:
        raise RuntimeModelError(
            f"reference approach {reference!r} has no outcome for "
            f"{reference_faults} faults"
        )
    base = results[reference][reference_faults].mean_utility
    if base <= 0:
        raise RuntimeModelError(
            "reference mean utility is non-positive; cannot normalize"
        )
    return {
        name: {
            faults: 100.0 * outcome.mean_utility / base
            for faults, outcome in per_fault.items()
        }
        for name, per_fault in results.items()
    }
