"""Property-based tests of the library-wide invariants.

These use hypothesis to generate random applications/scenarios and
check the guarantees the schedulers advertise, most importantly the
hard-deadline guarantee under arbitrary fault placements.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.injection import ExecutionScenario
from repro.faults.model import FaultScenario
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.runtime.online import simulate
from repro.scheduling.ftsf import ftsf
from repro.scheduling.ftss import FTSSConfig, ftss
from repro.workloads.suite import WorkloadSpec, generate_application

_slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_scenario(app, data):
    """Draw an arbitrary execution scenario within the fault budget."""
    durations = {}
    max_attempts = app.k + 1
    for proc in app.processes:
        attempts = data.draw(
            st.lists(
                st.integers(proc.bcet, proc.wcet),
                min_size=max_attempts,
                max_size=max_attempts,
            ),
            label=f"durations[{proc.name}]",
        )
        durations[proc.name] = tuple(attempts)
    n_faults = data.draw(st.integers(0, app.k), label="faults")
    names = [p.name for p in app.processes]
    hits = {}
    for _ in range(n_faults):
        victim = data.draw(st.sampled_from(names), label="victim")
        hits[victim] = hits.get(victim, 0) + 1
    pattern = FaultScenario.of(hits) if hits else FaultScenario.none()
    return ExecutionScenario(durations, pattern)


class TestHardDeadlineGuarantee:
    """Invariant 2/3: schedulable => no hard deadline miss, ever."""

    @_slow
    @given(seed=st.integers(0, 500), data=st.data())
    def test_ftss_schedule(self, seed, data):
        app = generate_application(
            WorkloadSpec(n_processes=10), seed=seed
        )
        schedule = ftss(app)
        assert schedule is not None
        scenario = _random_scenario(app, data)
        result = simulate(app, schedule, scenario, record_events=False)
        assert result.met_all_hard_deadlines
        assert result.makespan <= app.period

    @_slow
    @given(seed=st.integers(0, 200), data=st.data())
    def test_ftqs_tree(self, seed, data):
        app = generate_application(
            WorkloadSpec(n_processes=8), seed=seed
        )
        root = ftss(app)
        assert root is not None
        tree = ftqs(app, root, FTQSConfig(max_schedules=4))
        scenario = _random_scenario(app, data)
        result = simulate(app, tree, scenario, record_events=False)
        assert result.met_all_hard_deadlines
        assert result.makespan <= app.period

    @_slow
    @given(seed=st.integers(0, 200), data=st.data())
    def test_ftsf_schedule(self, seed, data):
        app = generate_application(
            WorkloadSpec(n_processes=8), seed=seed
        )
        schedule = ftsf(app)
        assert schedule is not None
        scenario = _random_scenario(app, data)
        result = simulate(app, schedule, scenario, record_events=False)
        assert result.met_all_hard_deadlines


class TestExecutionSemantics:
    """Invariant 4: no reordering, switches only along valid arcs."""

    @_slow
    @given(seed=st.integers(0, 300), data=st.data())
    def test_static_execution_preserves_order(self, seed, data):
        app = generate_application(WorkloadSpec(n_processes=8), seed=seed)
        schedule = ftss(app)
        scenario = _random_scenario(app, data)
        result = simulate(app, schedule, scenario, record_events=False)
        completed = [
            n for n in schedule.order if n in result.completion_times
        ]
        times = [result.completion_times[n] for n in completed]
        assert times == sorted(times)

    @_slow
    @given(seed=st.integers(0, 300), data=st.data())
    def test_utility_never_negative_and_bounded(self, seed, data):
        app = generate_application(WorkloadSpec(n_processes=8), seed=seed)
        schedule = ftss(app)
        scenario = _random_scenario(app, data)
        result = simulate(app, schedule, scenario, record_events=False)
        assert 0.0 <= result.utility <= app.max_utility() + 1e-9

    @_slow
    @given(seed=st.integers(0, 300), data=st.data())
    def test_every_process_accounted_for(self, seed, data):
        app = generate_application(WorkloadSpec(n_processes=8), seed=seed)
        schedule = ftss(app)
        scenario = _random_scenario(app, data)
        result = simulate(app, schedule, scenario, record_events=False)
        completed = set(result.completion_times)
        dropped = set(result.dropped)
        assert completed.isdisjoint(dropped)
        for proc in app.processes:
            assert proc.name in completed or proc.name in dropped


class TestStatisticalDominance:
    """Invariant 5 (statistical, fixed seeds): FTQS >= FTSS on paired
    scenario sets; both >= 0-budget baselines in the mean."""

    @pytest.mark.parametrize("seed", [5, 15])
    def test_ftqs_mean_at_least_ftss(self, seed):
        from repro.evaluation.montecarlo import MonteCarloEvaluator

        app = generate_application(WorkloadSpec(n_processes=15), seed=seed)
        root = ftss(app)
        tree = ftqs(app, root, FTQSConfig(max_schedules=8))
        evaluator = MonteCarloEvaluator(app, n_scenarios=80, seed=seed)
        results = evaluator.compare({"tree": tree, "root": root})
        for faults in results["tree"]:
            assert (
                results["tree"][faults].mean_utility
                >= results["root"][faults].mean_utility - 1e-9
            )


class TestConfigurationSafety:
    """Every ablation configuration still guarantees hard deadlines."""

    @pytest.mark.parametrize(
        "config",
        [
            FTSSConfig(drop_heuristic=False),
            FTSSConfig(slack_sharing=False),
            FTSSConfig(optimize_for="wcet"),
            FTSSConfig(soft_reexecution=False),
        ],
        ids=[
            "no-dropping",
            "private-slack",
            "wcet-opt",
            "no-soft-rexec",
        ],
    )
    def test_ablated_ftss_still_safe(self, config):
        app = generate_application(WorkloadSpec(n_processes=12), seed=77)
        schedule = ftss(app, config=config)
        if schedule is None:
            pytest.skip("configuration cannot schedule this app")
        rng = np.random.default_rng(4)
        from repro.faults.injection import ScenarioSampler

        sampler = ScenarioSampler(app, rng=rng)
        for faults in range(app.k + 1):
            for scenario in sampler.sample_many(10, faults=faults):
                result = simulate(app, schedule, scenario, record_events=False)
                assert result.met_all_hard_deadlines
