"""Worker-pool lifecycle of the sharded evaluator.

The whole point of the persistent pool is that comparing many plans
pays the fork + shared-memory publication cost once — these tests pin
that down by counting pool spawns and per-worker context builds, and
check that teardown releases the shared segments and that a closed
evaluator can be used again.
"""

from __future__ import annotations

import gc
import os
import time
import warnings
import weakref

import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.pipeline.chaos import ChaosPlan, active
from repro.runtime.engine import parallel
from repro.runtime.engine.parallel import (
    ParallelEvaluator,
    TaskPool,
    WorkerContext,
)
from repro.scheduling.ftss import ftss


@pytest.fixture
def counted_spawns(monkeypatch):
    """Patch ParallelEvaluator._spawn_pool to count pool creations."""
    spawns = []
    original = ParallelEvaluator._spawn_pool

    def counting(self, processes):
        spawns.append(processes)
        return original(self, processes)

    monkeypatch.setattr(ParallelEvaluator, "_spawn_pool", counting)
    return spawns


def test_pool_spawned_once_across_evaluates(fig1_app, counted_spawns):
    """evaluate() × n and compare() share one pool per evaluator."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=3,
        execution="kernel@processes:2",
    ) as evaluator:
        first = evaluator.evaluate(plan)
        second = evaluator.evaluate(plan)
        compared = evaluator.compare({"a": plan, "b": plan})
        # One segment for the durations every fault count shares, one
        # for the stacked fault counts — not two per fault count.
        segments = evaluator.executor("kernel@processes:2")._segments
        assert len(segments) == 2
    assert counted_spawns == [2], (
        f"expected exactly one 2-worker pool spawn, saw {counted_spawns}"
    )
    for faults in (0, 1):
        assert (
            first[faults].utilities.tobytes()
            == second[faults].utilities.tobytes()
        )
        assert (
            compared["a"][faults].utilities.tobytes()
            == first[faults].utilities.tobytes()
        )


def test_montecarlo_caches_executors(fig1_app):
    """Executors are cached per ExecutionConfig."""
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=5, fault_counts=[0], seed=3
    )
    try:
        assert evaluator.executor("kernel@processes:2") is (
            evaluator.executor("kernel@processes:2")
        )
        assert evaluator.executor("kernel@processes:2") is not (
            evaluator.executor("kernel@processes:3")
        )
        assert evaluator.executor("kernel@threads:2") is not (
            evaluator.executor("kernel@processes:2")
        )
    finally:
        evaluator.close()


def test_single_shard_runs_in_process(fig1_app, counted_spawns):
    """One worker (or one scenario) never pays for a pool."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=8, fault_counts=[0], seed=5
    ) as evaluator:
        evaluator.executor("kernel@processes:1").evaluate(plan)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=1, fault_counts=[0], seed=5
    ) as evaluator:
        evaluator.executor("kernel@processes:2").evaluate(plan)
    assert counted_spawns == []


def test_close_releases_and_respawns(fig1_app, counted_spawns):
    """close() tears the pool down; the next evaluate() respawns."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=16, fault_counts=[0], seed=7
    ) as source:
        executor = source.executor("kernel@processes:2")
        before = executor.evaluate(plan)
        assert counted_spawns == [2]
        executor.close()
        assert executor._segments == []
        after = executor.evaluate(plan)
        assert counted_spawns == [2, 2]
        assert before[0].utilities.tobytes() == after[0].utilities.tobytes()


def test_executor_needs_its_evaluator(fig1_app):
    """An executor only serves the evaluator that built it: once that
    evaluator is gone it fails loudly instead of re-sampling a private
    copy of the scenarios."""
    from repro.errors import RuntimeModelError

    executor = MonteCarloEvaluator(
        fig1_app, n_scenarios=8, fault_counts=[0], seed=5
    ).executor("kernel@processes:2")
    with pytest.raises(RuntimeModelError, match="garbage-collected"):
        executor.evaluate(ftss(fig1_app))
    executor.close()


@pytest.mark.parametrize("spec", ["kernel@threads:2", "kernel@processes:2"])
def test_open_executor_keeps_no_plan(fig1_app, spec):
    """An evaluated plan is garbage once its caller drops it, while
    the executor stays open: only the kernel's content-keyed table
    memo outlives an evaluation, and it holds tables, not plans."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=12, fault_counts=[0, 1], seed=3
    ) as evaluator:
        executor = evaluator.executor(spec)
        outcomes = executor.evaluate(plan)
        assert all(o.n_scenarios == 12 for o in outcomes.values())
        ref = weakref.ref(plan)
        del plan
        # A shard thread drops its task's arguments just after handing
        # its result over; give it a moment, not a reason to pass.
        for _ in range(100):
            gc.collect()
            if ref() is None:
                break
            time.sleep(0.01)
        assert ref() is None, f"{spec} keeps an evaluated plan alive"
        assert executor.evaluate(ftss(fig1_app)) == outcomes


@pytest.fixture
def counted_manager_spawns(monkeypatch):
    """Count generic-pool spawns of a ResourceManager."""
    from repro.pipeline.resources import ResourceManager

    spawns = []
    original = ResourceManager._spawn_pool

    def counting(self, jobs):
        spawns.append(jobs)
        return original(self, jobs)

    monkeypatch.setattr(ResourceManager, "_spawn_pool", counting)
    return spawns


def _schedulable_apps(n, n_processes=10, start_seed=1):
    from repro.scheduling.ftss import ftss as build_root
    from repro.workloads.suite import WorkloadSpec, generate_application

    apps = []
    seed = start_seed
    while len(apps) < n:
        app = generate_application(
            WorkloadSpec(n_processes=n_processes), seed=seed
        )
        seed += 1
        root = build_root(app)
        if root is not None:
            apps.append((app, root))
    return apps


def test_one_evaluation_pool_across_applications(counted_manager_spawns):
    """Evaluators of successive applications borrow one shared pool;
    closing an evaluator releases only its scenario segments."""
    from repro.pipeline.resources import ResourceManager

    with ResourceManager() as resources:
        for app, root in _schedulable_apps(3):
            with resources.evaluator(
                app, n_scenarios=12, fault_counts=[0, 1], seed=3,
                execution="kernel@processes:2",
            ) as evaluator:
                shared = evaluator.evaluate(root)
            with MonteCarloEvaluator(
                app, n_scenarios=12, fault_counts=[0, 1], seed=3,
                execution="kernel",
            ) as evaluator:
                single = evaluator.evaluate(root)
            for faults in (0, 1):
                assert (
                    shared[faults].utilities.tobytes()
                    == single[faults].utilities.tobytes()
                )
    assert counted_manager_spawns == [2], (
        f"expected one 2-worker evaluation pool for the whole sweep, "
        f"saw {counted_manager_spawns}"
    )


def test_driver_sweep_spawns_one_pool_per_kind(counted_manager_spawns):
    """End-to-end: a Table 1 run with evaluation workers spawns one
    evaluation pool, not one per application or per M, and synthesis
    spawns none."""
    from repro.evaluation.experiments.table1 import (
        Table1Config,
        run_table1,
    )
    from repro.pipeline.resources import ResourceManager

    config = Table1Config(
        tree_sizes=(1, 2, 4), n_apps=2, n_processes=10,
        n_scenarios=16, seed=5, execution="kernel@processes:2",
    )
    with ResourceManager() as resources:
        rows = run_table1(config, resources=resources)
    assert [r.nodes for r in rows] == [1, 2, 4]
    assert counted_manager_spawns == [2], (
        f"expected exactly one evaluation pool, saw "
        f"{counted_manager_spawns}"
    )


def test_outcomes_carry_fallback_counts(fig1_app):
    """Fallback counts merge across shards and engines coherently."""
    from repro.runtime.engine.kernel import KernelSimulator

    plan = ftss(fig1_app)
    simulator = KernelSimulator(fig1_app, plan)
    if simulator.engine_used != "kernel":
        pytest.skip(
            f"kernel engine unavailable ({simulator.fallback_reason})"
        )
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=12, fault_counts=[0, 1], seed=9
    ) as evaluator:
        kernel = evaluator.evaluate(plan, execution="kernel@processes:2")
        reference = evaluator.evaluate(
            plan, execution="reference@processes:2"
        )
    for faults in (0, 1):
        assert kernel[faults].fallbacks == 0
        assert kernel[faults].fast_path_share == 1.0
        assert reference[faults].fallbacks == 12
        assert reference[faults].fast_path_share == 0.0


# ----------------------------------------------------------------------
# Worker contexts
# ----------------------------------------------------------------------
def _logged_builds(path):
    """The pids that built a context, one line per build."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return handle.read().split()


@pytest.mark.parametrize("borrowed", [False, True], ids=["owned", "borrowed"])
def test_workers_build_each_context_once_per_token(
    fig1_app, tmp_path, monkeypatch, borrowed
):
    """Every worker builds an evaluator's context once — across
    evaluate() and compare() calls — and a worker respawned after a
    kill-worker chaos fault builds it again, whether the executor
    spawned its own pool or borrowed a ResourceManager's."""
    from repro.pipeline.resources import ResourceManager

    log = str(tmp_path / "builds.log")
    original = parallel._EvaluationWorker.__init__

    def logging_init(self, *args):
        original(self, *args)
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")

    monkeypatch.setattr(parallel._EvaluationWorker, "__init__", logging_init)
    plan = ftss(fig1_app)
    with ResourceManager() as resources:
        make = resources.evaluator if borrowed else MonteCarloEvaluator
        with make(
            fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=3,
            execution="kernel@processes:2",
        ) as evaluator:
            first = evaluator.evaluate(plan)
            evaluator.compare({"a": plan, "b": plan})
            builds = _logged_builds(log)
            assert len(builds) == 2 and len(set(builds)) == 2
            assert os.getpid() not in map(int, builds)
            with active(ChaosPlan(kill_worker={0: 1}, kill_budget=1)):
                assert evaluator.evaluate(plan) == first
            # Both workers get a shard of the next map, so the
            # respawned one has built the context by now at the latest.
            assert evaluator.evaluate(plan) == first
            rebuilt = _logged_builds(log)
            assert len(rebuilt) == 3 and rebuilt[:2] == builds
            assert rebuilt[2] not in builds


class _Tagged:
    """Context state that logs which process built it."""

    def __init__(self, path, label):
        self.label = label
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}:{label}\n")


def _tag(state, task):
    return state.label, task


def test_taskpool_context_per_token_and_in_process_degradation(tmp_path):
    """A new token is built once per worker; a task degraded to
    in-process execution builds the context once in the parent."""
    log = str(tmp_path / "builds.log")
    first = WorkerContext.of(_Tagged, log, "a")
    second = WorkerContext.of(_Tagged, log, "b")
    assert first.token != second.token
    with TaskPool(2) as pool:
        assert pool.map(_tag, [1, 2], first) == [("a", 1), ("a", 2)]
        assert pool.map(_tag, [3, 4], first) == [("a", 3), ("a", 4)]
        assert pool.map(_tag, [5, 6], second) == [("b", 5), ("b", 6)]
        builds = _logged_builds(log)
        labels = sorted(build.split(":")[1] for build in builds)
        assert labels == ["a", "a", "b", "b"]
        assert len(set(builds)) == 4  # two workers, one build per token
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # Task 0 loses its worker past the retry budget.
            with active(ChaosPlan(kill_worker={0: 99})):
                degraded = pool.map(_tag, [7, 8], first)
        assert degraded == [("a", 7), ("a", 8)]
        assert pool.recovery.degraded_tasks == 1
        assert pool.map(_tag, [9, 10], first) == [("a", 9), ("a", 10)]
    in_process = [
        b for b in _logged_builds(log)[4:] if b.startswith(f"{os.getpid()}:")
    ]
    assert in_process == [f"{os.getpid()}:a"]
