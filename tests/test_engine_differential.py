"""Differential harness: the C kernel engine vs the reference scheduler.

The kernel engine is only trustworthy because every scenario it
simulates can be checked against :class:`OnlineScheduler`, the
behavioral oracle.  For a corpus of applications (the paper's worked
examples, the cruise controller, and seeded random DAGs), plans
(static FTSS schedules and FTQS trees of several sizes) and all fault
counts, these tests assert that the per-scenario utility, deadline-
miss flag, switch chain and observed fault count are *bit-identical* —
not approximately equal — between both engines.  The §2.2
schedulability thresholds the core fills into a plan's tables
(``rk_thresholds``) are checked cell by cell against the oracle's own
``FSchedule`` probe and against :func:`node_thresholds`, which lowers
them where no core can be had, to the same bytes.

By default a tier-1-safe smoke slice runs (small scenario counts, the
``engine_smoke`` marker); ``pytest --engine-full`` opts into the full
corpus (more scenarios, bigger trees and applications).  On a box
without a C compiler the tests that need the core skip with
``kernel engine unavailable``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.execution import ExecutionConfig
from repro.examples_support import (
    paper_fig1_application,
    paper_fig8_application,
)
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.quasistatic.tree import QSTree
from repro.runtime.engine import ScenarioBatch
from repro.runtime.engine.kernel import KernelSimulator, kernel_stats
from repro.runtime.engine.kernel.lower import (
    NEVER,
    lower_plan,
    node_thresholds,
    probe_info,
)
from repro.runtime.online import OnlineScheduler
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
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


def _fault_heavy_apps():
    """Soft-dense applications with k >= 2 (the fault-heavy corpus)."""
    return [
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


def _dense_apps(full: bool):
    """All-soft applications (the decision-point-dense corpus)."""
    specs = [
        ("all-soft-8", WorkloadSpec(n_processes=8, soft_ratio=1.0, k=3), 7),
        ("all-soft-12", WorkloadSpec(n_processes=12, soft_ratio=1.0, k=2), 19),
    ]
    if full:
        specs.append(
            (
                "all-soft-16",
                WorkloadSpec(n_processes=16, soft_ratio=1.0, k=3),
                11,
            )
        )
    return [
        (label, generate_application(spec, seed=seed))
        for label, spec, seed in specs
    ]


def _core():
    """The loaded C core; skips when none can be had."""
    from repro.runtime.engine.kernel import KernelBuildError
    from repro.runtime.engine.kernel.dispatch import load_core

    try:
        return load_core()
    except KernelBuildError as exc:
        pytest.skip(f"kernel engine unavailable ({exc.reason})")


def _kernel(app, plan):
    """The plan's kernel simulator; skips when no core can be had."""
    simulator = KernelSimulator(app, plan)
    if simulator.engine_used != "kernel":
        pytest.skip(
            f"kernel engine unavailable ({simulator.fallback_reason})"
        )
    return simulator


def _assert_identical(app, plan, scenarios, label=""):
    """Kernel results must be bit-identical to the oracle's, per
    scenario: utility bits, miss flag, switch chain and count, and
    observed faults."""
    oracle = OnlineScheduler(app, plan, record_events=False)
    if not isinstance(scenarios, ScenarioBatch):
        scenarios = ScenarioBatch.from_scenarios(app, scenarios)
    result = _kernel(app, plan).run_batch(scenarios)
    for i, scenario in enumerate(scenarios):
        reference = oracle.run(scenario)
        where = f"{label} scenario {i}"
        assert (
            np.float64(reference.utility).tobytes()
            == result.utilities[i].tobytes()
        ), where
        assert bool(result.deadline_miss[i]) == (
            not reference.met_all_hard_deadlines
        ), where
        assert result.switch_chains[i] == reference.switches, where
        assert result.switch_counts[i] == len(reference.switches), where
        assert result.faults_observed[i] == reference.faults_observed, where
    return result


@engine_smoke
def test_differential_corpus(engine_full, kernel_cache):
    """The default evaluator route aggregates to the oracle's outcomes.

    Every (app, plan, fault count) cell of the corpus, evaluated the
    way the experiments do — ``MonteCarloEvaluator.evaluate`` on the
    default engine — must match the reference engine field for field,
    with no no-fault scenario leaving the core (otherwise the speedup
    claim is vacuous).
    """
    from repro.execution import DEFAULT_ENGINE

    n_scenarios = 200 if engine_full else 30
    checked = 0
    for app_label, app in _corpus_apps(engine_full):
        plans = _plans(app, engine_full)
        assert plans, f"{app_label}: FTSS failed to schedule the corpus app"
        evaluator = MonteCarloEvaluator(
            app, n_scenarios=n_scenarios, seed=17, execution=DEFAULT_ENGINE
        )
        for plan_label, plan in plans:
            _kernel(app, plan)
            expected = evaluator.evaluate(plan, execution="reference")
            actual = evaluator.evaluate(plan)
            for faults, outcome in actual.items():
                label = f"{app_label}/{plan_label}/f={faults}"
                reference = expected[faults]
                assert (
                    outcome.utilities.tobytes()
                    == reference.utilities.tobytes()
                ), label
                assert outcome.mean_utility == reference.mean_utility, label
                assert (
                    outcome.deadline_misses == reference.deadline_misses
                ), label
                assert outcome.mean_switches == reference.mean_switches, label
                assert outcome.mean_faults == reference.mean_faults, label
                if faults == 0:
                    assert outcome.fast_path_share == 1.0, (
                        f"{label}: no-fault scenarios fell back to the "
                        "reference loop"
                    )
                checked += 1
    assert checked > 0


def _wcet_twin(app, plans, widen=3):
    """The cruise controller ``app`` with every WCET widened by
    ``widen``, every AET pinned and its graph built from the same edge
    list (so predecessor orders match), and ``plans`` re-bound to it
    through their JSON documents: the same schedules and arcs, while
    the §2.2 thresholds, computed from WCETs, differ."""
    from dataclasses import replace

    from repro.io.json_io import (
        schedule_from_dict,
        schedule_to_dict,
        tree_from_dict,
        tree_to_dict,
    )
    from repro.model.application import Application
    from repro.model.graph import ProcessGraph
    from repro.workloads.cruise import CC_EDGES

    graph = ProcessGraph(
        [replace(p, wcet=p.wcet + widen, aet=p.aet) for p in app.processes],
        CC_EDGES,
        name=app.graph.name,
        period=app.period,
    )
    twin = Application(graph, period=app.period, k=app.k, mu=app.mu)
    rebound = [
        (
            label,
            tree_from_dict(twin, tree_to_dict(plan))
            if isinstance(plan, QSTree)
            else schedule_from_dict(twin, schedule_to_dict(plan)),
        )
        for label, plan in plans
    ]
    return twin, rebound


@engine_smoke
def test_kernel_differential_corpus(engine_full, kernel_cache):
    """The C kernel core matches the oracle per scenario, bit for bit.

    Utility bits, deadline miss, switch chain and count, and observed
    faults, over every (app, plan, fault count) cell of the corpus.
    Right after the cruise controller, in the same process, a twin of
    it with every WCET widened runs the original's plans re-bound to
    it: its tables must be lowered afresh, not served from the
    original's.  Skipped, with the counted reason, on boxes without a
    C compiler.
    """
    n_scenarios = 120 if engine_full else 25
    checked = 0
    cases = []
    for app_label, app in _corpus_apps(engine_full):
        plans = _plans(app, engine_full)
        assert plans, f"{app_label}: FTSS failed to schedule the corpus app"
        cases.append((app_label, app, plans))
        if app_label == "cc":
            cases.append(("cc-wcet+3", *_wcet_twin(app, plans)))
    for app_label, app, plans in cases:
        evaluator = MonteCarloEvaluator(
            app, n_scenarios=n_scenarios, seed=17
        )
        for plan_label, plan in plans:
            for faults, batch in evaluator.scenarios.items():
                label = f"{app_label}/{plan_label}/f={faults}"
                result = _assert_identical(app, plan, batch, label)
                if faults == 0:
                    assert result.n_fallback == 0, label
                checked += 1
    assert checked > 0


def test_kernel_malformed_tree_replays_oracle_residual(kernel_cache):
    """Scenarios outside the C walk's state model take the oracle.

    The malformed tree of :func:`_malformed_tree` re-executes a
    completed process; the kernel must flag those scenarios out of its
    fast path and replay them on the oracle with identical results,
    counting each replay.
    """
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario

    app, tree = _malformed_tree()
    scenarios = [
        average_case_scenario(app, FaultScenario.none()),
        average_case_scenario(app, FaultScenario.of({"H": 1})),
    ]
    actual = _assert_identical(app, tree, scenarios)
    assert actual.n_fallback == len(scenarios)
    assert kernel_stats().oracle_scenarios == len(scenarios)


@engine_smoke
def test_kernel_evaluator_outcomes_identical(fig8_app, kernel_cache):
    """An evaluator on the default routing runs the kernel and
    aggregates to the reference engine's outcomes, field for field."""
    evaluator = MonteCarloEvaluator(
        fig8_app, n_scenarios=60, seed=9, execution=ExecutionConfig()
    )
    assert evaluator.execution.engine == "kernel"
    plan = ftqs(fig8_app, ftss(fig8_app), FTQSConfig(max_schedules=6))
    _kernel(fig8_app, plan)
    by_reference = evaluator.evaluate(plan, execution="reference")
    by_kernel = evaluator.evaluate(plan)
    assert set(by_reference) == set(by_kernel)
    for faults in by_reference:
        ref, ker = by_reference[faults], by_kernel[faults]
        assert ref.utilities.tobytes() == ker.utilities.tobytes()
        assert ref.mean_utility == ker.mean_utility
        assert ref.deadline_misses == ker.deadline_misses
        assert ref.mean_switches == ker.mean_switches
        assert ref.mean_faults == ker.mean_faults
        assert ker.fallbacks == 0


@engine_smoke
def test_kernel_parallel_sharding_is_outcome_preserving(
    fig1_app, kernel_cache
):
    """jobs=2 with engine="kernel" merges to the jobs=1 outcomes."""
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=25, fault_counts=[0, 1], seed=4
    )
    plan = ftss(fig1_app)
    _kernel(fig1_app, plan)
    with evaluator:
        serial = evaluator.evaluate(plan, execution="kernel")
        sharded = evaluator.evaluate(
            plan, execution="kernel@processes:2"
        )
    for faults in serial:
        assert (
            sharded[faults].utilities.tobytes()
            == serial[faults].utilities.tobytes()
        )


@engine_smoke
def test_faulted_scenarios_use_fast_path_when_hard_only(
    fig1_app, kernel_cache
):
    """Fault patterns touching only hard processes stay in the core."""
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
def test_soft_faulted_scenarios_stay_vectorized(fig1_app, kernel_cache):
    """Faulted soft processes resolve in the core via the lowered §2.2
    tables."""
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
def test_fault_heavy_corpus_stays_on_tables(engine_full, kernel_cache):
    """Fault-heavy, soft-dense corpus: bit-identical with zero fallback.

    Fault counts ≥ 2 on soft-dense plans hammer the lowered §2.2
    decision tables (re-execution chains, drops, post-drop benefit
    terms).  Every fault pattern here is re-execution-reachable — the
    plans are well-formed trees — so *no* scenario may leave the core.
    """
    n_scenarios = 120 if engine_full else 25
    checked = 0
    for app_label, app in _fault_heavy_apps():
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
                label = f"{app_label}/{plan_label}/f={faults}"
                result = _assert_identical(app, plan, scenarios, label)
                assert result.n_fallback == 0, (
                    f"{label}: {result.n_fallback} scenarios left the "
                    "table path"
                )
                checked += 1
    assert checked > 0


@engine_smoke
def test_evaluator_outcomes_identical_across_engines(fig1_app, kernel_cache):
    """Aggregated outcomes match engine-for-engine, field for field."""
    from repro.execution import ENGINES

    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=60, seed=9)
    plan = ftqs(fig1_app, ftss(fig1_app), FTQSConfig(max_schedules=6))
    by_engine = {
        engine: evaluator.evaluate(plan, execution=engine)
        for engine in ENGINES
    }
    ref = by_engine["reference"]
    for engine, outcomes in by_engine.items():
        assert set(outcomes) == set(ref), engine
        for faults, outcome in outcomes.items():
            assert (
                outcome.utilities.tobytes()
                == ref[faults].utilities.tobytes()
            ), engine
            assert outcome.mean_utility == ref[faults].mean_utility
            assert outcome.deadline_misses == ref[faults].deadline_misses
            assert outcome.mean_switches == ref[faults].mean_switches
            assert outcome.mean_faults == ref[faults].mean_faults


@engine_smoke
def test_parallel_sharding_is_outcome_preserving(fig1_app, kernel_cache):
    """jobs=2 (and a jobs=3 odd split) merge to the oracle's outcomes."""
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=25, fault_counts=[0, 1], seed=4
    )
    plan = ftss(fig1_app)
    serial = evaluator.evaluate(plan, execution="reference")
    for jobs in (2, 3):
        sharded = evaluator.evaluate(
            plan, execution=f"kernel@processes:{jobs}"
        )
        for faults in serial:
            assert (
                sharded[faults].utilities.tobytes()
                == serial[faults].utilities.tobytes()
            )
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
    assert sharded[0].utilities.tobytes() == serial[0].utilities.tobytes()


@engine_smoke
@pytest.mark.parametrize(
    "execution", ["reference", "reference@processes:2", "reference@threads:2"]
)
def test_reference_engine_is_the_oracle_loop(execution):
    """The reference engine aggregates a plain oracle loop.

    Every other engine is checked against ``reference``, so it is
    pinned here against an independent loop: one
    :class:`OnlineScheduler` run per scenario of each set, in order —
    inline, process-sharded and re-routed from threads alike.  The
    cruise-controller tree switches, so the switch means are not
    vacuously zero.
    """
    app = cruise_controller()
    plan = ftqs(app, ftss(app), FTQSConfig(max_schedules=8))
    with MonteCarloEvaluator(app, n_scenarios=30, seed=11) as evaluator:
        outcomes = evaluator.evaluate(plan, execution=execution)
        oracle = OnlineScheduler(app, plan, record_events=False)
        switched = 0
        for faults, batch in evaluator.scenarios.items():
            runs = [oracle.run(scenario) for scenario in batch]
            outcome = outcomes[faults]
            assert outcome.utilities.tobytes() == np.array(
                [run.utility for run in runs]
            ).tobytes()
            assert outcome.deadline_misses == sum(
                not run.met_all_hard_deadlines for run in runs
            )
            switches = sum(len(run.switches) for run in runs)
            assert outcome.mean_switches == switches / len(runs)
            assert outcome.mean_faults == (
                sum(run.faults_observed for run in runs) / len(runs)
            )
            assert outcome.fallbacks == outcome.n_scenarios == 30
            assert outcome.fast_path_share == 0.0
            switched += switches
    assert set(outcomes) == set(evaluator.scenarios)
    assert switched > 0


@engine_smoke
def test_decision_point_dense_corpus(engine_full, kernel_cache):
    """Every scheduled position a decision point: still zero fallback.

    All-soft applications make every scheduled entry a candidate
    decision point; crafting one fault on *every* scheduled process
    turns all of them into actual §2.2 decisions.  Results must stay
    bit-identical with no scenario leaving the core.  Sampled fault
    patterns (which on an all-soft application always land on soft
    processes) ride along for breadth.
    """
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario

    n_scenarios = 60 if engine_full else 15
    checked = 0
    for label, app in _dense_apps(engine_full):
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
                "left the core"
            )
            for faults, scenarios in evaluator.scenarios.items():
                result = _assert_identical(app, plan, scenarios)
                assert result.n_fallback == 0, (
                    f"{label}/{plan_label}/f={faults}: "
                    f"{result.n_fallback} scenarios left the core"
                )
                checked += 1
    assert checked > 0


def _hard_pred_app(predecessors=("H",)):
    """A (soft) ∥ H (hard) → S (soft), for hand-built malformed trees;
    ``predecessors`` are S's, added in that order."""
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
        [a, h, s],
        [(pred, "S") for pred in predecessors],
        name="hard-pred",
        period=300,
    )
    return Application(graph, period=300, k=1, mu=10)


def _tree_switching_after_a(app, child):
    """Root A, H, S; after A, always switch into ``child``."""
    from repro.quasistatic.tree import QSTree, SwitchArc

    root = FSchedule(
        app,
        [
            ScheduledEntry("A", 1),
            ScheduledEntry("H", 1),
            ScheduledEntry("S", 1),
        ],
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
    return tree


def _malformed_tree():
    """A tree whose child re-executes A, which completed under the
    parent — outside the core's state model."""
    app = _hard_pred_app()
    child = FSchedule(
        app,
        [ScheduledEntry("A", 1), ScheduledEntry("H", 1)],
        fault_budget=1,
    )
    return app, _tree_switching_after_a(app, child)


def _probe_raise_tree():
    """A tree whose child claims H completed before it starts, but its
    arc fires after A only — so when S faults, the oracle's probe
    constructor raises (hard predecessor missing from both the
    completed set and the probe)."""
    app = _hard_pred_app()
    child = FSchedule(
        app,
        [ScheduledEntry("S", 1)],
        fault_budget=1,
        prior_completed=frozenset({"A", "H"}),
    )
    return app, _tree_switching_after_a(app, child)


def _cyclic_tree():
    """A two-node tree whose A-arcs point at each other: each node runs
    A, H, S, and every completion of A before 150 switches to the other
    node, so a chain runs to 3-7 switches — longer than the ``n_nodes +
    1 = 3`` chain columns the core writes."""
    from repro.quasistatic.tree import QSTree, SwitchArc

    app = _hard_pred_app()

    def schedule():
        return FSchedule(
            app,
            [ScheduledEntry(name, 1) for name in ("A", "H", "S")],
            fault_budget=1,
        )

    tree = QSTree(schedule())
    child = tree.add_child(tree.root_id, schedule(), "A", 0, layer=1)
    for source, target in (
        (tree.root_id, child.node_id), (child.node_id, tree.root_id)
    ):
        tree.add_arc(
            source,
            SwitchArc(
                process="A", lo=0, hi=150, required_faults=0, target=target
            ),
        )
    return app, tree


def test_kernel_chains_wider_than_the_core_match_the_oracle(kernel_cache):
    """Oracle replays write their chains into the result's chain matrix,
    widening it past the core's ``n_nodes + 1`` columns: on a tree whose
    arcs cycle, every scenario leaves the core, and the kernel's switch
    chains equal the oracle's."""
    app, tree = _cyclic_tree()
    batch = MonteCarloEvaluator(
        app, n_scenarios=40, fault_counts=[0], seed=5
    ).scenarios[0]
    result = _assert_identical(app, tree, batch)
    assert result.n_fallback == batch.n_scenarios
    assert kernel_stats().oracle_scenarios == batch.n_scenarios
    lengths = set(map(len, result.switch_chains))
    assert max(lengths) > len(tree) + 1, lengths
    assert result.chains.shape == (batch.n_scenarios, max(lengths))


def test_malformed_tree_counts_fallback(kernel_cache):
    """Arcs revisiting an executed process stay on (and count) the oracle.

    Every no-fault scenario of the malformed tree switches into the
    child that re-runs A; the evaluator must report each one as an oracle
    fallback — identical results, ``fast_path_share`` 0 — so coverage
    regressions stay visible.
    """
    app, tree = _malformed_tree()
    _kernel(app, tree)
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=20, fault_counts=[0], seed=3
    )
    expected = evaluator.evaluate(tree, execution="reference")
    actual = evaluator.evaluate(tree, execution="kernel")
    for faults, outcome in actual.items():
        assert (
            outcome.utilities.tobytes()
            == expected[faults].utilities.tobytes()
        )
        assert outcome.fallbacks == outcome.n_scenarios, (
            "every scenario switches into the malformed child and must be "
            f"counted as fallback, got {outcome.fallbacks}"
        )
        assert outcome.fast_path_share == 0.0


def test_probe_raise_routes_to_oracle_and_counts_fallback(kernel_cache):
    """§2.2 probes the oracle would reject leave the core.

    Only the scenario that faults S needs the probe, so only it may be
    routed to the oracle — where replaying it reproduces the oracle's
    raise; the clean scenario alone stays in the core.
    """
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario

    app, tree = _probe_raise_tree()
    clean = average_case_scenario(app, FaultScenario.none())
    faulted = average_case_scenario(app, FaultScenario.of({"S": 1}))
    result = _assert_identical(app, tree, [clean])
    assert result.n_fallback == 0
    assert kernel_stats().oracle_scenarios == 0

    with pytest.raises(SchedulingError):
        OnlineScheduler(app, tree, record_events=False).run(faulted)
    batch = ScenarioBatch.from_scenarios(app, [clean, faulted])
    with pytest.raises(SchedulingError):
        _kernel(app, tree).run_batch(batch)
    assert kernel_stats().oracle_scenarios == 1


def test_kernel_reproduces_probe_raise(kernel_cache):
    """The kernel replays probe-rejected scenarios on the oracle —
    including reproducing its raise."""
    from repro.faults.injection import average_case_scenario
    from repro.faults.model import FaultScenario

    app, tree = _probe_raise_tree()
    kernel = _kernel(app, tree)
    faulted = average_case_scenario(app, FaultScenario.of({"S": 1}))
    batch = ScenarioBatch.from_scenarios(app, [faulted])
    with pytest.raises(SchedulingError):
        kernel.run_batch(batch)


def test_batch_rejects_mismatched_process_columns(
    fig1_app, fig8_app, kernel_cache
):
    """A batch packed for one application cannot run another's plan —
    on the core and on its oracle degradation path alike."""
    from repro.errors import RuntimeModelError
    from repro.runtime.engine import BatchSimulator

    batch = MonteCarloEvaluator(
        fig8_app, n_scenarios=2, fault_counts=[0], seed=1
    ).scenarios[0]
    plan = ftss(fig1_app)
    for simulator in (_kernel(fig1_app, plan), BatchSimulator(fig1_app, plan)):
        with pytest.raises(RuntimeModelError, match="columns"):
            simulator.run_batch(batch)


# ----------------------------------------------------------------------
# §2.2 thresholds: closed form vs the oracle's probe
# ----------------------------------------------------------------------
def _max_start(app, schedule, position, attempt, budget):
    """Latest probe start passing the S_iH deadline test, from the
    oracle's own ``FSchedule`` probe (the reference the closed form in
    :func:`node_thresholds` must match).

    The probe is the faulted entry with its remaining re-executions,
    then the rest of the schedule with hard caps at ``budget`` and soft
    caps clamped to it, built in a canonical "everything else already
    completed" context (the worst-case constants do not depend on it).
    """
    entry = schedule.entries[position]
    entries = [
        ScheduledEntry(
            entry.name, min(entry.reexecutions - attempt - 1, budget)
        )
    ]
    for later in schedule.entries[position + 1 :]:
        cap = (
            budget
            if app.process(later.name).is_hard
            else min(later.reexecutions, budget)
        )
        entries.append(ScheduledEntry(later.name, cap))
    probe_names = {e.name for e in entries}
    try:
        probe = FSchedule(
            app,
            entries,
            start_time=0,
            fault_budget=budget,
            prior_completed=frozenset(
                p.name for p in app.processes if p.name not in probe_names
            ),
            slack_sharing=schedule.slack_sharing,
        )
    except SchedulingError:
        return NEVER
    completions = probe.worst_case_completions()
    bounds = [app.period - probe.worst_case_makespan()]
    for e in entries:
        proc = app.process(e.name)
        if proc.is_hard:
            bounds.append(proc.deadline - completions[e.name])
    return min(bounds)


def _assert_thresholds_match_probe(app, plan, core):
    """Every cell of the ``thr`` table ``lower_plan`` fills through the
    core equals :func:`node_thresholds`'s and the probe's; returns the
    number of cells checked."""
    tree = QSTree(plan) if isinstance(plan, FSchedule) else plan
    arrays = lower_plan(app, tree, core).arrays
    stride = app.k + 1
    cells = 0
    for dense, node in enumerate(sorted(tree, key=lambda n: n.node_id)):
        entries = node.schedule.entries
        ent_lo = int(arrays["nodes"][dense]["ent_lo"])
        thresholds = node_thresholds(app, node.schedule)
        assert len(thresholds) == len(entries)
        for position, per_attempt in enumerate(thresholds):
            proc = app.process(entries[position].name)
            cap = entries[position].reexecutions
            natt = 0 if proc.is_hard else min(cap, app.k)
            decision = arrays["decisions"][ent_lo + position]
            assert len(per_attempt) == natt == decision["natt"]
            lo = int(decision["thr_lo"])
            table = arrays["thr"][lo : lo + natt * stride]
            assert table.reshape(natt, stride).tolist() == per_attempt, (
                node.node_id, position,
            )
            mu = app.recovery_overhead(proc.name)
            for attempt, per_budget in enumerate(per_attempt):
                assert per_budget == [
                    _max_start(app, node.schedule, position, attempt, b) - mu
                    for b in range(app.k + 1)
                ], (node.node_id, position, attempt)
                cells += len(per_budget)
    assert cells == len(arrays["thr"])
    return cells


def _late_deadline_app():
    """Soft A → hard H (deadline 290) → soft S, T = 300, k = 2: the
    period binds the S_iH probe from A on before H's deadline does, and
    FTSS re-executes both soft processes with private slack too."""
    from repro.model.application import Application
    from repro.model.graph import ProcessGraph
    from repro.model.process import hard_process, soft_process
    from repro.utility.functions import StepUtility

    a = soft_process(
        "A", bcet=20, wcet=40, utility=StepUtility(30, [(150, 10)]), aet=30
    )
    h = hard_process("H", bcet=20, wcet=40, deadline=290, aet=30)
    s = soft_process(
        "S", bcet=10, wcet=20, utility=StepUtility(40, [(200, 20)]), aet=15
    )
    graph = ProcessGraph(
        [a, h, s], [("A", "H"), ("H", "S")], name="late", period=300
    )
    return Application(graph, period=300, k=2, mu=10)


def _threshold_corpus(full: bool):
    """``(label, app, plan)`` over the engine corpus — the differential,
    fault-heavy and decision-point-dense applications, under every
    plan those tests run — and the late-deadline application's plans
    with shared and with private slack."""
    from repro.scheduling.ftss import FTSSConfig

    apps = _corpus_apps(full) + _fault_heavy_apps() + _dense_apps(full)
    for label, app in apps:
        plans = _plans(app, full)
        assert plans, label
        plans.append(
            ("ftqs-6", ftqs(app, plans[0][1], FTQSConfig(max_schedules=6)))
        )
        for plan_label, plan in plans:
            yield f"{label}/{plan_label}", app, plan
    app = _late_deadline_app()
    for sharing in (True, False):
        config = FTSSConfig(slack_sharing=sharing)
        root = ftss(app, config=config)
        assert root is not None and root.slack_sharing == sharing
        tree = ftqs(app, root, FTQSConfig(max_schedules=4, ftss=config))
        yield f"late/sharing={sharing}/ftss", app, root
        yield f"late/sharing={sharing}/ftqs-4", app, tree


@engine_smoke
def test_thresholds_match_the_probe_on_the_corpus(engine_full):
    """The §2.2 thresholds ``rk_thresholds`` fills equal
    :func:`node_thresholds` and the oracle's ``FSchedule`` probe on
    every soft cell of every plan of the engine corpus."""
    core = _core()
    cells = sum(
        _assert_thresholds_match_probe(app, plan, core)
        for _, app, plan in _threshold_corpus(engine_full)
    )
    assert cells > 0


def _assert_masks_match_probe_info(app, plan):
    """Every node's process and all-dropped masks and every entry's
    probe masks ``lower_plan`` derives from the context's integer masks
    equal the name-set oracles' (:func:`probe_info`,
    ``FSchedule.all_dropped``); returns the number of soft entries
    checked."""
    from repro.scheduling.compiled import SchedulingContext

    ctx = SchedulingContext.of(app)
    nw = (len(ctx.names) + 63) // 64
    tree = QSTree(plan) if isinstance(plan, FSchedule) else plan
    arrays = lower_plan(app, tree, _core()).arrays

    def words(names):
        mask = ctx.mask(names)
        return [mask >> (64 * w) & ((1 << 64) - 1) for w in range(nw)]

    def row(name, i):
        return arrays[name][i * nw : (i + 1) * nw].tolist()

    soft = 0
    for dense, node in enumerate(sorted(tree, key=lambda n: n.node_id)):
        schedule = node.schedule
        assert row("node_mask", dense) == words(schedule.order)
        assert row("node_sdrop", dense) == words(schedule.all_dropped)
        ent_lo = int(arrays["nodes"][dense]["ent_lo"])
        for pos, (entry, (probed, external)) in enumerate(
            zip(schedule.entries, probe_info(app, schedule))
        ):
            if app.process(entry.name).is_hard:
                probed = external = ()
            else:
                soft += 1
            e = ent_lo + pos
            assert row("ent_hardprobe", e) == words(probed), (dense, pos)
            assert row("ent_ext", e) == words(external), (dense, pos)
    return soft


@engine_smoke
def test_probe_masks_match_probe_info_on_the_corpus(engine_full):
    """The backward pass of ``lower_plan`` over integer masks gives
    :func:`probe_info`'s sets on every plan of the engine corpus and
    on a schedule that runs a process before its hard predecessor."""
    checked = sum(
        _assert_masks_match_probe_info(app, plan)
        for _, app, plan in _threshold_corpus(engine_full)
    )
    assert checked > 0
    app = _hard_pred_app()
    schedule = FSchedule(
        app,
        [ScheduledEntry("A", 1), ScheduledEntry("H", 1), ScheduledEntry("S", 1)],
        fault_budget=1,
    )
    # Bypass validation to reorder the entries: S, H, A.
    schedule.entries = tuple(schedule.entries[i] for i in (2, 1, 0))
    assert _assert_masks_match_probe_info(app, schedule) == 2


@engine_smoke
def test_malformed_schedule_threshold_is_never():
    """A probe the oracle would reject gives ``NEVER`` (minus µ).

    S scheduled before its predecessor H: every probe that contains
    both is rejected, while the probe from A on, after the violation,
    keeps its bound — both exactly as the ``FSchedule`` probe says, in
    the core's table as in :func:`node_thresholds`.
    """
    core = _core()
    app = _hard_pred_app()
    schedule = FSchedule(
        app,
        [ScheduledEntry("A", 1), ScheduledEntry("H", 1), ScheduledEntry("S", 1)],
        fault_budget=1,
    )
    # Bypass validation to reorder the entries: S, H, A.
    schedule.entries = tuple(schedule.entries[i] for i in (2, 1, 0))
    thresholds = node_thresholds(app, schedule)
    mu = app.recovery_overhead("S")
    assert thresholds[0] == [[NEVER - mu] * (app.k + 1)]
    assert thresholds[1] == []
    assert min(thresholds[2][0]) > 0
    assert _assert_thresholds_match_probe(app, schedule, core) == 2 * (
        app.k + 1
    )


@engine_smoke
def test_lowering_without_a_compiler_is_byte_identical(
    engine_full, tmp_path, monkeypatch
):
    """Where no core can be had, :func:`node_thresholds` fills the
    ``thr`` table instead of ``rk_thresholds``: every array of every
    corpus plan keeps its dtype, shape and bytes, ``repro export``
    writes the same files, and each lowering counts its
    ``no-compiler`` fallback."""
    import repro.runtime.engine.kernel.dispatch as dispatch
    from repro.io.c_export import write_c_tables

    core = _core()
    corpus = list(_threshold_corpus(engine_full))
    lowered = [lower_plan(app, plan, core).arrays for _, app, plan in corpus]
    for i, (_, app, plan) in enumerate(corpus):
        write_c_tables(app, plan, str(tmp_path / "core" / str(i)))

    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    monkeypatch.setattr(dispatch, "_CORE", None)
    monkeypatch.setattr(dispatch, "_FAILED", {})
    monkeypatch.setattr(dispatch, "_GLOBAL_STATS", dispatch.KernelStats())
    for (label, app, plan), arrays in zip(corpus, lowered):
        oracle = lower_plan(app, plan, dispatch.prepare_core()).arrays
        assert sorted(oracle) == sorted(arrays), label
        for name, array in arrays.items():
            assert (
                (oracle[name].dtype, oracle[name].shape, oracle[name].tobytes())
                == (array.dtype, array.shape, array.tobytes())
            ), (label, name)
    for i, (label, app, plan) in enumerate(corpus):
        paths = write_c_tables(app, plan, str(tmp_path / "oracle" / str(i)))
        for path in paths:
            name = path.rsplit("/", 1)[1]
            with_core = tmp_path / "core" / str(i) / name
            assert open(path, "rb").read() == with_core.read_bytes(), (
                label, name,
            )
    assert kernel_stats().fallbacks == {"no-compiler": 2 * len(corpus)}
