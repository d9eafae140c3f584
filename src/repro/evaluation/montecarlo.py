"""Monte-Carlo evaluation of schedules and quasi-static trees (§6).

The paper evaluates every approach on 20,000 execution scenarios per
fault count (0, 1, 2, 3 faults), with actual execution times drawn
uniformly from [BCET, WCET].  Crucially, the *same* scenarios are
replayed against every approach — the comparison is paired — which is
what :class:`MonteCarloEvaluator` implements: scenarios are generated
once per (application, fault count) and each plan runs them all.

Two interchangeable engines execute the replay:

* ``engine="reference"`` — the pure-Python
  :class:`~repro.runtime.online.OnlineScheduler` event loop, one
  scenario at a time (the behavioral oracle);
* ``engine="batched"`` — the array-based
  :class:`~repro.runtime.engine.simulator.BatchSimulator`, which packs
  each scenario set into a :class:`ScenarioBatch` and is bit-identical
  to the oracle (see ``tests/test_engine_differential.py``) while an
  order of magnitude faster;
* ``engine="kernel"`` — the
  :class:`~repro.runtime.engine.kernel.KernelSimulator`, which runs
  the plan's lowered decision tables through one prebuilt C core and
  is bit-identical to both (falling back to the batched engine, with
  a counted reason, when no C compiler is available).

Engine and parallelism are routed by one
:class:`~repro.execution.ExecutionConfig` (``execution=`` — an
instance or a spec string like ``"kernel@threads:8"``):
``mode="processes"`` shards the scenario range across
``multiprocessing`` workers via
:class:`~repro.runtime.engine.parallel.ParallelEvaluator`,
``mode="threads"`` across a GIL-free thread pool via
:class:`~repro.runtime.engine.threads.ThreadedEvaluator`.  Sharding is
deterministic and outcome-preserving for any mode and worker count.
The pre-:class:`ExecutionConfig` keywords ``engine=``/``jobs=`` remain
as deprecated aliases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import RuntimeModelError
from repro.execution import (
    ENGINES,
    ExecutionConfig,
    choices_line,
    resolve_execution,
)
from repro.faults.injection import ExecutionScenario, ScenarioSampler
from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.simulator import BatchSimulator
from repro.runtime.online import OnlineScheduler
from repro.scheduling.fschedule import FSchedule

Plan = Union[QSTree, FSchedule]

#: Raw simulation of one scenario set: (per-scenario utilities,
#: deadline misses, total switches, total faults, oracle fallbacks).
#: ``fallbacks`` counts scenarios the batched engine routed through
#: the reference loop (the whole set, for ``engine="reference"``).
RawOutcome = Tuple[List[float], int, int, int, int]

def _check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise RuntimeModelError(
            f"unknown engine {engine!r}; {choices_line()}"
        )
    return engine


@dataclass
class EvaluationOutcome:
    """Aggregated simulation results of one plan on one scenario set."""

    mean_utility: float
    utilities: List[float] = field(repr=False, default_factory=list)
    deadline_misses: int = 0
    mean_switches: float = 0.0
    mean_faults: float = 0.0
    fallbacks: int = 0

    @property
    def ok(self) -> bool:
        """True when no simulated cycle missed a hard deadline."""
        return self.deadline_misses == 0

    @property
    def n_scenarios(self) -> int:
        return len(self.utilities)

    @property
    def fast_path_share(self) -> float:
        """Fraction of scenarios resolved without the reference loop.

        1.0 for a fully vectorized batched run, 0.0 for the reference
        engine; drops in between flag fast-path coverage regressions.
        """
        if not self.utilities:
            return 0.0
        return 1.0 - self.fallbacks / len(self.utilities)

    @classmethod
    def aggregate(
        cls,
        utilities: Sequence[float],
        deadline_misses: int,
        total_switches: int,
        total_faults: int,
        fallbacks: int = 0,
    ) -> "EvaluationOutcome":
        """Aggregate per-scenario results into one outcome.

        Raises :class:`RuntimeModelError` on an empty scenario set —
        the per-scenario means are undefined, and silently returning
        zeros would poison every normalization downstream.
        """
        count = len(utilities)
        if count == 0:
            raise RuntimeModelError(
                "cannot aggregate an empty scenario set; every fault "
                "count needs at least one scenario"
            )
        return cls(
            mean_utility=float(np.mean(utilities)),
            utilities=list(utilities),
            deadline_misses=deadline_misses,
            mean_switches=total_switches / count,
            mean_faults=total_faults / count,
            fallbacks=fallbacks,
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
        non-empty.
    seed:
        Seed of the scenario sampler.
    execution:
        An :class:`~repro.execution.ExecutionConfig` or spec string
        (``"reference"``, ``"kernel@threads:8"``,
        ``"batched@processes:4"``) routing engine and parallelism;
        defaults to the inline reference engine.  Results are
        identical for every config, only speed differs.
    engine, jobs:
        Deprecated aliases (``engine=E, jobs=N`` ≡
        ``execution=f"{E}@processes:{N}"``, inline for ``N == 1``);
        they emit a :class:`DeprecationWarning` and cannot be combined
        with ``execution=``.
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
        engine: Optional[str] = None,
        jobs: Optional[int] = None,
        resources=None,
    ):
        if n_scenarios < 1:
            raise RuntimeModelError("need at least one scenario")
        self.app = app
        self.n_scenarios = int(n_scenarios)
        self.seed = seed
        self.execution = resolve_execution(
            execution,
            engine,
            jobs,
            base=self.DEFAULT_EXECUTION,
            owner="MonteCarloEvaluator",
        )
        # Read-only legacy mirrors of the resolved routing.
        self.engine = self.execution.engine
        self.jobs = self.execution.workers
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
        # Couple the fault-count axes: the i-th scenario of every fault
        # count shares the same execution-time draws, differing only in
        # the fault pattern.  Cross-fault-count comparisons ("utility
        # drops by x% under one fault") are then paired rather than
        # independent, which removes most of the sampling noise.
        from repro.faults.scenarios import sample_scenario

        sampler = ScenarioSampler(app, seed=seed)
        max_attempts = max(self.fault_counts, default=0) + 1
        names = [p.name for p in app.processes]
        duration_sets = [
            {
                name: tuple(values)
                for name, values in sampler.sample_durations(
                    max_attempts
                ).items()
            }
            for _ in range(n_scenarios)
        ]
        self.scenarios: Dict[int, List[ExecutionScenario]] = {}
        for f in self.fault_counts:
            patterns = [
                sample_scenario(names, f, sampler.rng)
                for _ in range(n_scenarios)
            ]
            self.scenarios[f] = [
                ExecutionScenario(durations, pattern)
                for durations, pattern in zip(duration_sets, patterns)
            ]
        self._batches: Dict[int, ScenarioBatch] = {}
        # Persistent sharded executors, one per ExecutionConfig: the
        # worker pool / thread pool and shared-memory scenario
        # segments survive across evaluate()/compare() calls (see
        # ParallelEvaluator and ThreadedEvaluator).
        self._executors: Dict[ExecutionConfig, object] = {}

    # ------------------------------------------------------------------
    # Simulation primitives (shared by in-process and sharded paths)
    # ------------------------------------------------------------------
    def _batch_for(self, faults: int) -> ScenarioBatch:
        """The packed form of one scenario set (cached per fault count)."""
        batch = self._batches.get(faults)
        if batch is None:
            batch = ScenarioBatch.from_scenarios(
                self.app, self.scenarios[faults]
            )
            self._batches[faults] = batch
        return batch

    @staticmethod
    def _reference_raw(
        scheduler: OnlineScheduler, scenarios: Sequence[ExecutionScenario]
    ) -> RawOutcome:
        utilities: List[float] = []
        misses = 0
        switches = 0
        observed = 0
        for scenario in scenarios:
            result = scheduler.run(scenario)
            utilities.append(result.utility)
            if not result.met_all_hard_deadlines:
                misses += 1
            switches += len(result.switches)
            observed += result.faults_observed
        return utilities, misses, switches, observed, len(utilities)

    @staticmethod
    def _batched_raw(
        simulator: BatchSimulator, batch: ScenarioBatch
    ) -> RawOutcome:
        result = simulator.run_batch(batch)
        return (
            [float(u) for u in result.utilities],
            int(result.deadline_miss.sum()),
            int(result.switch_counts.sum()),
            int(result.faults_observed.sum()),
            result.n_fallback,
        )

    def simulate_raw(
        self,
        plan: Plan,
        scenarios: Sequence[ExecutionScenario],
        engine: Optional[str] = None,
    ) -> RawOutcome:
        """Simulate an explicit scenario list; returns raw counts.

        The building block :class:`ParallelEvaluator` workers call on
        their shard slices.
        """
        engine = self.engine if engine is None else _check_engine(engine)
        if engine in ("batched", "kernel"):
            return self._batched_raw(
                self._simulator_for(engine, plan),
                ScenarioBatch.from_scenarios(self.app, scenarios),
            )
        return self._reference_raw(
            OnlineScheduler(self.app, plan, record_events=False), scenarios
        )

    def _simulator_for(self, engine: str, plan: Plan) -> BatchSimulator:
        """The array-engine simulator for ``engine`` (``run_batch`` duck
        type; the kernel simulator degrades to batched on its own)."""
        if engine == "kernel":
            from repro.runtime.engine.kernel import KernelSimulator

            return KernelSimulator(self.app, plan)
        return BatchSimulator(self.app, plan)

    # ------------------------------------------------------------------
    # Public evaluation API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        plan: Plan,
        execution: Union[None, str, ExecutionConfig] = None,
        engine: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> Dict[int, EvaluationOutcome]:
        """Run all scenario sets against ``plan``.

        Returns one :class:`EvaluationOutcome` per fault count.
        ``execution`` overrides the evaluator-wide routing for this
        call (the benches use this to time several engines on the same
        scenario sets); the deprecated ``engine``/``jobs`` keywords
        override their respective halves of it.
        """
        config = resolve_execution(
            execution,
            engine,
            jobs,
            base=self.execution,
            owner="MonteCarloEvaluator.evaluate",
        )
        if config.workers > 1 and config.mode != "inline":
            if config.mode == "processes" and config.engine == "kernel":
                # Build the core and lower the plan parent-side, so
                # every worker loads both from the artifact cache (or
                # inherits them) instead of racing to build them.
                # (The threaded executor builds its shard simulators
                # in-process itself.)
                self._simulator_for(config.engine, plan)
            return self.executor(config).evaluate(plan)
        engine = config.engine
        outcomes: Dict[int, EvaluationOutcome] = {}
        if engine in ("batched", "kernel"):
            simulator = self._simulator_for(engine, plan)
            for faults in self.fault_counts:
                raw = self._batched_raw(simulator, self._batch_for(faults))
                outcomes[faults] = EvaluationOutcome.aggregate(*raw)
        else:
            scheduler = OnlineScheduler(self.app, plan, record_events=False)
            for faults in self.fault_counts:
                raw = self._reference_raw(scheduler, self.scenarios[faults])
                outcomes[faults] = EvaluationOutcome.aggregate(*raw)
        return outcomes

    def compare(
        self, plans: Mapping[str, Plan]
    ) -> Dict[str, Dict[int, EvaluationOutcome]]:
        """Evaluate several named plans on the same scenario sets.

        With ``jobs > 1`` every plan reuses one persistent worker pool
        and one set of shared-memory scenario segments.
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
                executor = ParallelEvaluator(
                    self.app,
                    n_scenarios=self.n_scenarios,
                    fault_counts=self.fault_counts,
                    seed=self.seed,
                    execution=config,
                    source=self,
                    pool=pool,
                )
            self._executors[config] = executor
        return executor

    def parallel(self, engine: str, jobs: int) -> "ParallelEvaluator":
        """Deprecated: the process-sharding executor for (engine, jobs).

        Alias for ``executor(f"{engine}@processes:{jobs}")``.
        """
        import warnings

        warnings.warn(
            "MonteCarloEvaluator.parallel(engine, jobs) is deprecated; "
            "use executor('ENGINE@processes:N') / "
            "executor(ExecutionConfig(...)) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.executor(
            ExecutionConfig(
                engine=engine, mode="processes", workers=int(jobs)
            )
        )

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
