"""Differential harness: batched engine vs the reference scheduler.

The batched engine is only trustworthy because every scenario it
simulates can be checked against :class:`OnlineScheduler`, the
behavioral oracle.  For a corpus of applications (the paper's worked
examples, the cruise controller, and seeded random DAGs), plans
(static FTSS schedules and FTQS trees of several sizes) and all fault
counts, these tests assert that the per-scenario utility, deadline-
miss flag, switch chain and observed fault count are *bit-identical* —
not approximately equal — between both engines.

By default a tier-1-safe smoke slice runs (small scenario counts, the
``engine_smoke`` marker); ``pytest --engine-full`` opts into the full
corpus (more scenarios, bigger trees and applications).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.examples_support import (
    paper_fig1_application,
    paper_fig8_application,
)
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.runtime.engine import BatchSimulator, ScenarioBatch
from repro.runtime.online import OnlineScheduler
from repro.scheduling.ftss import ftss
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application

engine_smoke = pytest.mark.engine_smoke


def _corpus_apps(full: bool):
    """(label, application) pairs of the differential corpus."""
    apps = [
        ("fig1", paper_fig1_application()),
        ("fig8", paper_fig8_application()),
        ("cc", cruise_controller()),
        ("rand10", generate_application(WorkloadSpec(n_processes=10), seed=21)),
        ("rand14", generate_application(WorkloadSpec(n_processes=14), seed=5)),
    ]
    if full:
        apps += [
            (
                "rand18",
                generate_application(WorkloadSpec(n_processes=18), seed=3),
            ),
            (
                "rand25",
                generate_application(WorkloadSpec(n_processes=25), seed=8),
            ),
            (
                "rand30-soft",
                generate_application(
                    WorkloadSpec(n_processes=30, soft_ratio=0.7), seed=13
                ),
            ),
        ]
    return apps


def _plans(app, full: bool):
    """(label, plan) pairs to run differentially for one application."""
    root = ftss(app)
    if root is None:
        return []
    plans = [
        ("ftss", root),
        ("ftqs-4", ftqs(app, root, FTQSConfig(max_schedules=4))),
        ("ftqs-10", ftqs(app, root, FTQSConfig(max_schedules=10))),
    ]
    if full:
        plans.append(
            ("ftqs-24", ftqs(app, root, FTQSConfig(max_schedules=24)))
        )
    return plans


def _assert_identical(app, plan, scenarios):
    """Batched results must be bit-identical to the oracle's."""
    oracle = OnlineScheduler(app, plan, record_events=False)
    batch = ScenarioBatch.from_scenarios(app, scenarios)
    result = BatchSimulator(app, plan).run_batch(batch)
    for i, scenario in enumerate(scenarios):
        reference = oracle.run(scenario)
        assert result.utilities[i] == reference.utility
        assert bool(result.deadline_miss[i]) == (
            not reference.met_all_hard_deadlines
        )
        assert result.switch_chains[i] == reference.switches
        assert result.switch_counts[i] == len(reference.switches)
        assert result.faults_observed[i] == reference.faults_observed
    return result


@engine_smoke
def test_differential_corpus(engine_full):
    """Every (app, plan, fault count) cell matches the oracle exactly."""
    n_scenarios = 200 if engine_full else 30
    checked = 0
    for app_label, app in _corpus_apps(engine_full):
        plans = _plans(app, engine_full)
        assert plans, f"{app_label}: FTSS failed to schedule the corpus app"
        evaluator = MonteCarloEvaluator(
            app, n_scenarios=n_scenarios, seed=17
        )
        for plan_label, plan in plans:
            for faults, scenarios in evaluator.scenarios.items():
                result = _assert_identical(app, plan, scenarios)
                if faults == 0:
                    # No-fault scenarios must never need the oracle —
                    # otherwise the speedup claim is vacuous.
                    assert result.n_fallback == 0, (
                        f"{app_label}/{plan_label}: no-fault scenarios "
                        "fell back to the reference loop"
                    )
                checked += 1
    assert checked > 0


@engine_smoke
def test_kernel_differential_corpus(engine_full, kernel_cache):
    """The C kernel core matches the batched engine bit for bit.

    The batched engine is oracle-gated by
    :func:`test_differential_corpus`; chaining the kernel to it over
    the same corpus extends the bit-identity guarantee (utility,
    deadline miss, switch chain, observed faults, fast-path mask) to
    the compiled path.  Skipped, with the counted reason, on boxes
    without a C compiler — where the kernel *is* the batched engine.
    """
    from repro.runtime.engine.kernel import KernelSimulator

    n_scenarios = 120 if engine_full else 25
    checked = 0
    for app_label, app in _corpus_apps(engine_full):
        plans = _plans(app, engine_full)
        assert plans, f"{app_label}: FTSS failed to schedule the corpus app"
        evaluator = MonteCarloEvaluator(
            app, n_scenarios=n_scenarios, seed=17
        )
        for plan_label, plan in plans:
            batched = BatchSimulator(app, plan)
            kernel = KernelSimulator(app, plan)
            if kernel.engine_used != "kernel":
                pytest.skip(
                    f"kernel engine unavailable "
                    f"({kernel.fallback_reason})"
                )
            for faults, scenarios in evaluator.scenarios.items():
                batch = ScenarioBatch.from_scenarios(app, scenarios)
                expected = batched.run_batch(batch)
                actual = kernel.run_batch(batch)
                label = f"{app_label}/{plan_label}/f={faults}"
                assert (
                    actual.utilities.tobytes()
                    == expected.utilities.tobytes()
                ), label
                assert (
                    actual.deadline_miss == expected.deadline_miss
                ).all(), label
                assert actual.switch_chains == expected.switch_chains, label
                assert (
                    actual.switch_counts == expected.switch_counts
                ).all(), label
                assert (
                    actual.faults_observed == expected.faults_observed
                ).all(), label
                assert (
                    actual.fast_path == expected.fast_path
                ).all(), label
                checked += 1
    assert checked > 0


def test_kernel_malformed_tree_replays_oracle_residual(kernel_cache):
    """Scenarios outside the C walk's state model take the oracle.

    The malformed tree of :func:`test_malformed_tree_counts_fallback`
    re-executes a completed process; the kernel must flag those
    scenarios out of its fast path and replay them on the oracle with
    identical results and the same fallback count.
    """
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario
    from repro.quasistatic.tree import QSTree, SwitchArc
    from repro.runtime.engine.kernel import KernelSimulator
    from repro.scheduling.fschedule import FSchedule, ScheduledEntry

    app = _hard_pred_app()
    root = FSchedule(
        app,
        [
            ScheduledEntry("A", 1),
            ScheduledEntry("H", 1),
            ScheduledEntry("S", 1),
        ],
        fault_budget=1,
    )
    child = FSchedule(
        app,
        [ScheduledEntry("A", 1), ScheduledEntry("H", 1)],
        fault_budget=1,
    )
    tree = QSTree(root)
    node = tree.add_child(tree.root_id, child, "A", 0, layer=1)
    tree.add_arc(
        tree.root_id,
        SwitchArc(
            process="A", lo=0, hi=10**9, required_faults=0, target=node.node_id
        ),
    )
    kernel = KernelSimulator(app, tree)
    if kernel.engine_used != "kernel":
        pytest.skip(f"kernel engine unavailable ({kernel.fallback_reason})")
    scenarios = [
        average_case_scenario(app, FaultScenario.none()),
        average_case_scenario(app, FaultScenario.of({"H": 1})),
    ]
    batch = ScenarioBatch.from_scenarios(app, scenarios)
    expected = BatchSimulator(app, tree).run_batch(batch)
    actual = kernel.run_batch(batch)
    assert actual.n_fallback == len(scenarios)
    assert actual.utilities.tobytes() == expected.utilities.tobytes()
    assert actual.switch_chains == expected.switch_chains
    from repro.runtime.engine.kernel import kernel_stats

    assert kernel_stats().oracle_scenarios == len(scenarios)


@engine_smoke
def test_kernel_evaluator_outcomes_identical(fig1_app, kernel_cache):
    """engine="kernel" aggregates to the same outcomes, field for field."""
    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=60, seed=9)
    plan = ftqs(fig1_app, ftss(fig1_app), FTQSConfig(max_schedules=6))
    by_batch = evaluator.evaluate(plan, execution="batched")
    by_kernel = evaluator.evaluate(plan, execution="kernel")
    assert set(by_batch) == set(by_kernel)
    for faults in by_batch:
        bat, ker = by_batch[faults], by_kernel[faults]
        assert bat.utilities == ker.utilities
        assert bat.mean_utility == ker.mean_utility
        assert bat.deadline_misses == ker.deadline_misses
        assert bat.mean_switches == ker.mean_switches
        assert bat.mean_faults == ker.mean_faults


@engine_smoke
def test_kernel_parallel_sharding_is_outcome_preserving(
    fig1_app, kernel_cache
):
    """jobs=2 with engine="kernel" merges to the jobs=1 outcomes."""
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=25, fault_counts=[0, 1], seed=4
    )
    plan = ftss(fig1_app)
    with evaluator:
        serial = evaluator.evaluate(plan, execution="kernel")
        sharded = evaluator.evaluate(
            plan, execution="kernel@processes:2"
        )
    for faults in serial:
        assert sharded[faults].utilities == serial[faults].utilities


@engine_smoke
def test_faulted_scenarios_use_fast_path_when_hard_only(fig1_app):
    """Fault patterns touching only hard processes stay vectorized."""
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario

    app = fig1_app
    hard = app.hard[0].name
    root = ftss(app)
    scenario = average_case_scenario(app, FaultScenario.of({hard: 1}))
    result = _assert_identical(app, root, [scenario])
    assert result.n_fallback == 0
    assert result.faults_observed[0] == 1


@engine_smoke
def test_soft_faulted_scenarios_stay_vectorized(fig1_app):
    """Faulted soft processes resolve via the compiled §2.2 tables."""
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario

    app = fig1_app
    root = ftss(app)
    scheduled_soft = [
        e.name for e in root.entries if app.process(e.name).is_soft
    ]
    assert scheduled_soft, "fig1 root schedule has no soft process"
    scenario = average_case_scenario(
        app, FaultScenario.of({scheduled_soft[0]: 1})
    )
    result = _assert_identical(app, root, [scenario])
    assert result.n_fallback == 0
    assert result.faults_observed[0] == 1


@engine_smoke
def test_fault_heavy_corpus_stays_on_tables(engine_full):
    """Fault-heavy, soft-dense corpus: bit-identical with zero fallback.

    Fault counts ≥ 2 on soft-dense plans hammer the compiled §2.2
    decision tables (re-execution chains, drops, post-drop benefit
    tables).  Every fault pattern here is re-execution-reachable — the
    plans are well-formed trees — so *no* scenario may leave the
    vectorized path.
    """
    n_scenarios = 120 if engine_full else 25
    apps = [
        ("fig8", paper_fig8_application()),  # k = 2, the paper's §5 example
        ("cc", cruise_controller()),         # k = 2, 32 processes
        (
            "rand-soft-k3",
            generate_application(
                WorkloadSpec(n_processes=12, soft_ratio=0.8, k=3), seed=31
            ),
        ),
        (
            "rand-soft-k2",
            generate_application(
                WorkloadSpec(n_processes=16, soft_ratio=0.7, k=2), seed=44
            ),
        ),
    ]
    checked = 0
    for app_label, app in apps:
        root = ftss(app)
        assert root is not None, f"{app_label}: unschedulable corpus app"
        heavy_counts = [f for f in range(2, app.k + 1)]
        assert heavy_counts, f"{app_label}: needs k >= 2 for this corpus"
        evaluator = MonteCarloEvaluator(
            app, n_scenarios=n_scenarios, fault_counts=heavy_counts, seed=29
        )
        plans = [
            ("ftss", root),
            ("ftqs-6", ftqs(app, root, FTQSConfig(max_schedules=6))),
        ]
        for plan_label, plan in plans:
            for faults, scenarios in evaluator.scenarios.items():
                result = _assert_identical(app, plan, scenarios)
                assert result.n_fallback == 0, (
                    f"{app_label}/{plan_label}/f={faults}: "
                    f"{result.n_fallback} scenarios left the table path"
                )
                checked += 1
    assert checked > 0


@engine_smoke
def test_evaluator_outcomes_identical_across_engines(fig1_app):
    """Aggregated outcomes match engine-for-engine, field for field."""
    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=60, seed=9)
    plan = ftqs(fig1_app, ftss(fig1_app), FTQSConfig(max_schedules=6))
    by_reference = evaluator.evaluate(plan, execution="reference")
    by_batch = evaluator.evaluate(plan, execution="batched")
    assert set(by_reference) == set(by_batch)
    for faults in by_reference:
        ref, bat = by_reference[faults], by_batch[faults]
        assert ref.utilities == bat.utilities
        assert ref.mean_utility == bat.mean_utility
        assert ref.deadline_misses == bat.deadline_misses
        assert ref.mean_switches == bat.mean_switches
        assert ref.mean_faults == bat.mean_faults


@engine_smoke
def test_parallel_sharding_is_outcome_preserving(fig1_app):
    """jobs=2 (and a jobs=3 odd split) merge to the jobs=1 outcomes."""
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=25, fault_counts=[0, 1], seed=4
    )
    plan = ftss(fig1_app)
    serial = evaluator.evaluate(plan, execution="batched")
    for jobs in (2, 3):
        sharded = evaluator.evaluate(
            plan, execution=f"batched@processes:{jobs}"
        )
        for faults in serial:
            assert sharded[faults].utilities == serial[faults].utilities
            assert (
                sharded[faults].mean_utility == serial[faults].mean_utility
            )
            assert (
                sharded[faults].deadline_misses
                == serial[faults].deadline_misses
            )


@engine_smoke
def test_parallel_reference_engine_matches_too(fig1_app):
    """Sharding composes with the reference engine as well."""
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=12, fault_counts=[0], seed=4
    )
    plan = ftss(fig1_app)
    serial = evaluator.evaluate(plan, execution="reference")
    sharded = evaluator.evaluate(
        plan, execution="reference@processes:2"
    )
    assert sharded[0].utilities == serial[0].utilities


@engine_smoke
def test_decision_point_dense_corpus(engine_full):
    """Every scheduled position a decision point: still zero fallback.

    All-soft applications make every scheduled entry a candidate
    decision point; crafting one fault on *every* scheduled process
    turns all of them into actual decision points, so the fused core
    degenerates to pure position stepping (zero-length segments).
    Results must stay bit-identical with no scenario leaving the
    vectorized path.  Sampled fault patterns (which on an all-soft
    application always land on soft processes) ride along for breadth.
    """
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario

    specs = [
        ("all-soft-8", WorkloadSpec(n_processes=8, soft_ratio=1.0, k=3), 7),
        ("all-soft-12", WorkloadSpec(n_processes=12, soft_ratio=1.0, k=2), 19),
    ]
    if engine_full:
        specs.append(
            (
                "all-soft-16",
                WorkloadSpec(n_processes=16, soft_ratio=1.0, k=3),
                11,
            )
        )
    n_scenarios = 60 if engine_full else 15
    checked = 0
    for label, spec, seed in specs:
        app = generate_application(spec, seed=seed)
        assert not app.hard, f"{label}: expected an all-soft application"
        root = ftss(app)
        assert root is not None, f"{label}: unschedulable corpus app"
        plans = [
            ("ftss", root),
            ("ftqs-6", ftqs(app, root, FTQSConfig(max_schedules=6))),
        ]
        evaluator = MonteCarloEvaluator(
            app,
            n_scenarios=n_scenarios,
            fault_counts=list(range(1, app.k + 1)),
            seed=53,
        )
        for plan_label, plan in plans:
            # The dense slice proper: one fault on every scheduled
            # process, so *every* position needs a §2.2 decision.
            scheduled = [e.name for e in root.entries]
            dense = average_case_scenario(
                app, FaultScenario.of({name: 1 for name in scheduled})
            )
            result = _assert_identical(app, plan, [dense])
            assert result.n_fallback == 0, (
                f"{label}/{plan_label}: the all-decision-point scenario "
                "left the vectorized path"
            )
            for faults, scenarios in evaluator.scenarios.items():
                result = _assert_identical(app, plan, scenarios)
                assert result.n_fallback == 0, (
                    f"{label}/{plan_label}/f={faults}: "
                    f"{result.n_fallback} scenarios left the fused path"
                )
                checked += 1
    assert checked > 0


def _hard_pred_app():
    """A (soft) ∥ H (hard) → S (soft), for hand-built malformed trees."""
    from repro.model.application import Application
    from repro.model.graph import ProcessGraph
    from repro.model.process import hard_process, soft_process
    from repro.utility.functions import StepUtility

    a = soft_process(
        "A", bcet=20, wcet=40, utility=StepUtility(30, [(150, 10)]), aet=30
    )
    h = hard_process("H", bcet=20, wcet=40, deadline=200, aet=30)
    s = soft_process(
        "S", bcet=20, wcet=40, utility=StepUtility(40, [(200, 20)]), aet=30
    )
    graph = ProcessGraph(
        [a, h, s], [("H", "S")], name="hard-pred", period=300
    )
    return Application(graph, period=300, k=1, mu=10)


def test_malformed_tree_counts_fallback():
    """Arcs revisiting an executed process stay on (and count) the oracle.

    A child schedule that re-runs an already-completed process is
    outside the fused core's state model; such scenarios must be
    routed to the reference loop — with identical results — and be
    visible in ``BatchResult.n_fallback``.
    """
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario
    from repro.quasistatic.tree import QSTree, SwitchArc
    from repro.scheduling.fschedule import FSchedule, ScheduledEntry

    app = _hard_pred_app()
    root = FSchedule(
        app,
        [
            ScheduledEntry("A", 1),
            ScheduledEntry("H", 1),
            ScheduledEntry("S", 1),
        ],
        fault_budget=1,
    )
    # The child re-executes A, which completed under the parent.
    child = FSchedule(
        app,
        [ScheduledEntry("A", 1), ScheduledEntry("H", 1)],
        fault_budget=1,
    )
    tree = QSTree(root)
    node = tree.add_child(tree.root_id, child, "A", 0, layer=1)
    tree.add_arc(
        tree.root_id,
        SwitchArc(
            process="A", lo=0, hi=10**9, required_faults=0, target=node.node_id
        ),
    )
    scenarios = [
        average_case_scenario(app, FaultScenario.none()),
        average_case_scenario(app, FaultScenario.of({"H": 1})),
    ]
    result = _assert_identical(app, tree, scenarios)
    assert result.n_fallback == len(scenarios), (
        "every scenario switches into the malformed child and must be "
        f"counted as fallback, got {result.n_fallback}"
    )


def test_probe_raise_routes_to_oracle_and_counts_fallback():
    """§2.2 probes the oracle would reject leave the fused path.

    The child schedule claims H completed before it starts, but its
    arc fires after A only — so when S faults, the oracle's probe
    constructor raises (hard predecessor missing from both the
    completed set and the probe).  The fused core must route exactly
    the faulted scenarios to the oracle (counted in the fast-path
    mask) and ``run_batch`` must then reproduce the oracle's raise.
    """
    from repro.errors import SchedulingError
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario
    from repro.quasistatic.tree import QSTree, SwitchArc
    from repro.runtime.engine.simulator import BatchResult
    from repro.scheduling.fschedule import FSchedule, ScheduledEntry

    app = _hard_pred_app()
    root = FSchedule(
        app,
        [
            ScheduledEntry("A", 1),
            ScheduledEntry("H", 1),
            ScheduledEntry("S", 1),
        ],
        fault_budget=1,
    )
    child = FSchedule(
        app,
        [ScheduledEntry("S", 1)],
        fault_budget=1,
        prior_completed=frozenset({"A", "H"}),
    )
    tree = QSTree(root)
    node = tree.add_child(tree.root_id, child, "A", 0, layer=1)
    tree.add_arc(
        tree.root_id,
        SwitchArc(
            process="A", lo=0, hi=10**9, required_faults=0, target=node.node_id
        ),
    )
    clean = average_case_scenario(app, FaultScenario.none())
    faulted = average_case_scenario(app, FaultScenario.of({"S": 1}))
    batch = ScenarioBatch.from_scenarios(app, [clean, faulted])
    simulator = BatchSimulator(app, tree)

    # Accounting: only the faulted scenario needs the §2.2 probe, so
    # only it may leave the fused path (checked on the cohort pass
    # alone — replaying it on the oracle reproduces the raise below).
    result = BatchResult(
        utilities=np.zeros(2, dtype=np.float64),
        deadline_miss=np.zeros(2, dtype=bool),
        switch_counts=np.zeros(2, dtype=np.int64),
        faults_observed=np.zeros(2, dtype=np.int64),
        switch_chains=[()] * 2,
        fast_path=np.ones(2, dtype=bool),
    )
    simulator._run_cohorts(batch, np.arange(2, dtype=np.int64), result)
    assert result.fast_path[0]
    assert not result.fast_path[1]
    assert result.n_fallback == 1

    # Behaviour: the batched engine reproduces the oracle's exception.
    with pytest.raises(SchedulingError):
        OnlineScheduler(app, tree, record_events=False).run(faulted)
    with pytest.raises(SchedulingError):
        simulator.run_batch(batch)


def test_kernel_reproduces_probe_raise(kernel_cache):
    """The kernel replays probe-rejected scenarios on the oracle —
    including reproducing its raise, exactly like the batched engine
    in :func:`test_probe_raise_routes_to_oracle_and_counts_fallback`."""
    from repro.errors import SchedulingError
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario
    from repro.quasistatic.tree import QSTree, SwitchArc
    from repro.runtime.engine.kernel import KernelSimulator
    from repro.scheduling.fschedule import FSchedule, ScheduledEntry

    app = _hard_pred_app()
    root = FSchedule(
        app,
        [
            ScheduledEntry("A", 1),
            ScheduledEntry("H", 1),
            ScheduledEntry("S", 1),
        ],
        fault_budget=1,
    )
    child = FSchedule(
        app,
        [ScheduledEntry("S", 1)],
        fault_budget=1,
        prior_completed=frozenset({"A", "H"}),
    )
    tree = QSTree(root)
    node = tree.add_child(tree.root_id, child, "A", 0, layer=1)
    tree.add_arc(
        tree.root_id,
        SwitchArc(
            process="A", lo=0, hi=10**9, required_faults=0, target=node.node_id
        ),
    )
    kernel = KernelSimulator(app, tree)
    if kernel.engine_used != "kernel":
        pytest.skip(f"kernel engine unavailable ({kernel.fallback_reason})")
    faulted = average_case_scenario(app, FaultScenario.of({"S": 1}))
    batch = ScenarioBatch.from_scenarios(app, [faulted])
    with pytest.raises(SchedulingError):
        kernel.run_batch(batch)


def test_batch_rejects_mismatched_process_columns(fig1_app, fig8_app):
    """A batch packed for one application cannot run another's plan."""
    from repro.errors import RuntimeModelError

    evaluator = MonteCarloEvaluator(
        fig8_app, n_scenarios=2, fault_counts=[0], seed=1
    )
    batch = ScenarioBatch.from_scenarios(
        fig8_app, evaluator.scenarios[0]
    )
    simulator = BatchSimulator(fig1_app, ftss(fig1_app))
    with pytest.raises(RuntimeModelError):
        simulator.run_batch(batch)


def test_simulate_batch_convenience_wrapper(fig1_app):
    from repro.runtime.engine.simulator import simulate_batch

    sampler_scenarios = MonteCarloEvaluator(
        fig1_app, n_scenarios=5, fault_counts=[0], seed=2
    ).scenarios[0]
    batch = ScenarioBatch.from_scenarios(fig1_app, sampler_scenarios)
    result = simulate_batch(fig1_app, ftss(fig1_app), batch)
    assert result.n_scenarios == 5
    assert np.all(result.utilities >= 0)
