"""Tests for the Monte-Carlo evaluator, metrics and the replanner."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ModelError, RuntimeModelError
from repro.evaluation.metrics import CellStats, NormalizedTable, format_table
from repro.evaluation.montecarlo import (
    EvaluationOutcome,
    MonteCarloEvaluator,
    normalized_to,
)
from repro.execution import ENGINES
from repro.runtime.engine.simulator import BatchTotals
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.runtime.replanner import run_replanning
from repro.scheduling.ftsf import ftsf
from repro.scheduling.ftss import ftss


class TestMonteCarloEvaluator:
    def test_paired_scenarios_shared(self, fig1_app):
        """Every fault count's set reads one shared, read-only
        durations array, which evaluation leaves unchanged on every
        engine."""
        evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=20, seed=3)
        batches = evaluator.scenarios
        shared = batches[0].durations
        durations = shared.copy()
        fault_counts = {f: b.fault_counts.copy() for f, b in batches.items()}
        for engine in ENGINES:
            evaluator.evaluate(ftss(fig1_app), execution=engine)
            assert evaluator.scenarios is batches
            assert shared.flags.writeable is False
            assert np.array_equal(shared, durations)
            for faults, batch in batches.items():
                assert np.shares_memory(batch.durations, shared)
                assert np.array_equal(batch.fault_counts, fault_counts[faults])

    def test_outcomes_per_fault_count(self, fig1_app):
        evaluator = MonteCarloEvaluator(
            fig1_app, n_scenarios=30, fault_counts=[0, 1], seed=3
        )
        outcomes = evaluator.evaluate(ftss(fig1_app))
        assert set(outcomes) == {0, 1}
        assert outcomes[0].ok and outcomes[1].ok
        assert outcomes[0].mean_utility >= outcomes[1].mean_utility
        assert outcomes[1].mean_faults == pytest.approx(1.0)

    def test_compare_runs_all_plans(self, fig1_app):
        root = ftss(fig1_app)
        baseline = ftsf(fig1_app)
        tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=4))
        evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=50, seed=1)
        results = evaluator.compare(
            {"FTQS": tree, "FTSS": root, "FTSF": baseline}
        )
        assert set(results) == {"FTQS", "FTSS", "FTSF"}
        # Paired comparison: FTQS >= FTSS on the same scenarios.
        assert (
            results["FTQS"][0].mean_utility
            >= results["FTSS"][0].mean_utility - 1e-9
        )

    def test_normalized_to(self, fig1_app):
        root = ftss(fig1_app)
        evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=20, seed=1)
        results = evaluator.compare({"A": root, "B": root})
        percents = normalized_to(results, "A", reference_faults=0)
        assert percents["A"][0] == pytest.approx(100.0)
        assert percents["B"][0] == pytest.approx(100.0)

    def test_normalized_to_unknown_reference(self, fig1_app):
        evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=5, seed=1)
        results = evaluator.compare({"A": ftss(fig1_app)})
        with pytest.raises(RuntimeModelError):
            normalized_to(results, "missing")

    def test_normalized_to_unknown_reference_faults(self, fig1_app):
        evaluator = MonteCarloEvaluator(
            fig1_app, n_scenarios=5, fault_counts=[0], seed=1
        )
        results = evaluator.compare({"A": ftss(fig1_app)})
        with pytest.raises(RuntimeModelError):
            normalized_to(results, "A", reference_faults=7)

    def test_normalized_to_non_positive_base(self):
        zero = BatchTotals(np.zeros(1), 0, 0, 0, 0)
        results = {"A": {0: EvaluationOutcome.of([zero])}}
        with pytest.raises(RuntimeModelError):
            normalized_to(results, "A")

    def test_aggregate_empty_scenario_set_rejected(self):
        with pytest.raises(RuntimeModelError):
            EvaluationOutcome.of([BatchTotals(np.zeros(0), 0, 0, 0, 0)])

    @pytest.mark.parametrize("execution", ["kernel", "kernel@threads:2"])
    def test_outcome_utilities_are_a_read_only_array(
        self, fig1_app, execution
    ):
        """An outcome holds its per-scenario utilities as one read-only
        float64 array, never a list: inline the batch's own, sharded
        the shards' concatenated in range order."""
        with MonteCarloEvaluator(
            fig1_app, n_scenarios=9, fault_counts=[0, 1], seed=2
        ) as evaluator:
            outcomes = evaluator.evaluate(ftss(fig1_app), execution=execution)
        for outcome in outcomes.values():
            utilities = outcome.utilities
            assert isinstance(utilities, np.ndarray)
            assert utilities.dtype == np.float64
            assert utilities.flags.c_contiguous
            assert outcome.n_scenarios == len(utilities) == 9
            assert outcome.mean_utility == float(np.mean(utilities))
            assert type(outcome.mean_utility) is float
            assert type(outcome.deadline_misses) is int
            assert type(outcome.fallbacks) is int
            with pytest.raises(ValueError, match="read-only"):
                utilities[0] = 1.0

    def test_outcome_of_shards_is_the_outcome_of_their_union(self):
        """Concatenating shards in range order and adding their
        integer sums gives the bits of one batch over all of them."""
        rng = np.random.default_rng(4)
        values = rng.random(10)
        whole = EvaluationOutcome.of([BatchTotals(values.copy(), 3, 7, 5, 2)])
        shards = EvaluationOutcome.of([
            BatchTotals(values[:4].copy(), 1, 3, 2, 0),
            BatchTotals(values[4:].copy(), 2, 4, 3, 2),
        ])
        assert shards == whole
        assert shards.utilities.tobytes() == whole.utilities.tobytes()
        assert whole.mean_switches == 7 / 10 and whole.mean_faults == 5 / 10
        assert whole.fast_path_share == 1.0 - 2 / 10

    def test_outcome_equality_compares_per_scenario_bits(self):
        """Outcomes with equal aggregates differ when one scenario's
        utility does (a reordered shard merge has the same mean), and
        an outcome without utilities equals only another without."""
        values = np.array([0.25, 0.5, 0.75, 1.0])
        outcome = EvaluationOutcome.of([BatchTotals(values, 0, 2, 1, 0)])
        swapped = EvaluationOutcome.of([
            BatchTotals(values[[1, 0, 2, 3]], 0, 2, 1, 0)
        ])
        assert swapped.mean_utility == outcome.mean_utility
        assert swapped != outcome
        assert outcome == EvaluationOutcome.of(
            [BatchTotals(values.copy(), 0, 2, 1, 0)]
        )
        decoded = replace(outcome, utilities=None)
        assert decoded != outcome and outcome != decoded
        assert decoded == replace(outcome, utilities=None)
        assert replace(outcome, fallbacks=1) != outcome

    @pytest.mark.parametrize("n_scenarios", [2.5, 3.0, True, False, "4"])
    def test_non_integral_scenario_count_rejected(
        self, fig1_app, n_scenarios
    ):
        """``2.5`` used to evaluate 2 scenarios per fault count and
        ``True`` one."""
        with pytest.raises(RuntimeModelError, match="must be an integer"):
            MonteCarloEvaluator(fig1_app, n_scenarios=n_scenarios)

    @pytest.mark.parametrize(
        "fault_counts", [[1.0], [True, 0], [0, 1.5], [np.float64(1)]]
    )
    def test_non_integral_fault_count_rejected(self, fig1_app, fault_counts):
        """A float or bool fault count used to fail inside NumPy with a
        bare ``TypeError``, or count as 1."""
        with pytest.raises(ModelError, match="must be an integer"):
            MonteCarloEvaluator(
                fig1_app, n_scenarios=5, fault_counts=fault_counts
            )

    def test_numpy_integer_sizes_accepted(self, fig1_app):
        evaluator = MonteCarloEvaluator(
            fig1_app, n_scenarios=np.int64(6),
            fault_counts=[np.int32(0), np.int64(1)], seed=3,
        )
        outcomes = evaluator.evaluate(ftss(fig1_app))
        assert [o.n_scenarios for o in outcomes.values()] == [6, 6]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_compare_deterministic_and_non_mutating(self, fig1_app, engine):
        """Repeated compare() calls see pristine scenarios and return
        identical outcomes — evaluation must not mutate its inputs."""
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=4))
        evaluator = MonteCarloEvaluator(
            fig1_app, n_scenarios=25, seed=13, execution=engine
        )
        snapshot = {
            f: [
                (
                    {k: tuple(v) for k, v in s.durations.items()},
                    s.faults,
                )
                for s in scenarios
            ]
            for f, scenarios in evaluator.scenarios.items()
        }
        first = evaluator.compare({"tree": tree, "root": root})
        second = evaluator.compare({"tree": tree, "root": root})
        for name in first:
            for faults in first[name]:
                a, b = first[name][faults], second[name][faults]
                assert a.utilities.tobytes() == b.utilities.tobytes()
                assert a.mean_utility == b.mean_utility
                assert a.deadline_misses == b.deadline_misses
                assert a.mean_switches == b.mean_switches
        after = {
            f: [
                (
                    {k: tuple(v) for k, v in s.durations.items()},
                    s.faults,
                )
                for s in scenarios
            ]
            for f, scenarios in evaluator.scenarios.items()
        }
        assert after == snapshot

    def test_zero_scenarios_rejected(self, fig1_app):
        with pytest.raises(RuntimeModelError):
            MonteCarloEvaluator(fig1_app, n_scenarios=0)

    def test_empty_fault_counts_rejected(self, fig1_app):
        with pytest.raises(RuntimeModelError):
            MonteCarloEvaluator(fig1_app, n_scenarios=5, fault_counts=[])

    def test_negative_fault_counts_rejected(self, fig1_app):
        with pytest.raises(ModelError, match="non-negative, got -1"):
            MonteCarloEvaluator(
                fig1_app, n_scenarios=5, fault_counts=[0, -1]
            )

    def test_unknown_engine_rejected(self, fig1_app):
        with pytest.raises(RuntimeModelError):
            MonteCarloEvaluator(
                fig1_app, n_scenarios=5, execution="warp"
            )
        evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=5)
        with pytest.raises(RuntimeModelError):
            evaluator.evaluate(ftss(fig1_app), execution="warp")

    def test_non_positive_jobs_rejected(self, fig1_app):
        with pytest.raises(RuntimeModelError):
            MonteCarloEvaluator(
                fig1_app, n_scenarios=5, execution="kernel@processes:0"
            )
        evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=5)
        with pytest.raises(RuntimeModelError):
            evaluator.evaluate(
                ftss(fig1_app), execution="kernel@threads:0"
            )

    def test_duplicate_fault_counts_rejected(self, fig1_app):
        """A repeated fault count used to be sampled twice, the second
        draw replacing the first, so ``[1, 1]`` reported a different
        f=1 outcome than ``[1]``."""
        with pytest.raises(RuntimeModelError, match="duplicate"):
            MonteCarloEvaluator(
                fig1_app, n_scenarios=50, fault_counts=[1, 1], seed=3
            )
        with pytest.raises(RuntimeModelError, match="duplicate"):
            MonteCarloEvaluator(
                fig1_app, n_scenarios=5, fault_counts=[0, 1, 0]
            )

    def test_seed_determinism(self, fig1_app):
        a = MonteCarloEvaluator(fig1_app, n_scenarios=10, seed=5)
        b = MonteCarloEvaluator(fig1_app, n_scenarios=10, seed=5)
        plan = ftss(fig1_app)
        assert (
            a.evaluate(plan)[0].mean_utility
            == b.evaluate(plan)[0].mean_utility
        )


class TestMetrics:
    def test_cell_stats(self):
        stats = CellStats.from_values([10.0, 20.0, 30.0])
        assert stats.mean == pytest.approx(20.0)
        assert stats.count == 3

    def test_cell_stats_empty(self):
        stats = CellStats.from_values([])
        assert stats.count == 0
        assert np.isnan(stats.mean)

    def test_normalized_table(self):
        table = NormalizedTable()
        table.add("FTQS", 0, 100.0)
        table.add("FTQS", 0, 110.0)
        table.add("FTSS", 3, 80.0)
        assert table.approaches() == ["FTQS", "FTSS"]
        assert table.fault_counts() == [0, 3]
        assert table.cell("FTQS", 0).mean == pytest.approx(105.0)
        rows = table.as_rows()
        assert len(rows) == 2

    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["a", 1.25], ["bb", 3.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert any("1.2" in line for line in lines)


class TestReplanner:
    def test_matches_deadlines_and_counts_invocations(self, fig1_app):
        from repro.faults.injection import average_case_scenario

        outcome = run_replanning(fig1_app, average_case_scenario(fig1_app))
        assert outcome.result.met_all_hard_deadlines
        # One FTSS run per completed process + the final empty check.
        assert outcome.scheduler_invocations >= 3
        assert outcome.scheduling_seconds > 0

    def test_handles_faults(self, fig1_app):
        from repro.faults.injection import average_case_scenario
        from repro.faults.model import FaultScenario

        scenario = average_case_scenario(
            fig1_app, FaultScenario.of({"P1": 1})
        )
        outcome = run_replanning(fig1_app, scenario)
        assert outcome.result.met_all_hard_deadlines
        assert outcome.result.faults_observed == 1

    def test_replanner_at_least_as_good_as_static_on_average(self, fig1_app):
        """Re-planning with true current times is the adaptivity
        upper-ish bound the paper's §1 argues costs too much."""
        from repro.faults.injection import ScenarioSampler
        from repro.runtime.online import simulate

        root = ftss(fig1_app)
        sampler = ScenarioSampler(fig1_app, seed=8)
        static_total = replan_total = 0.0
        for scenario in sampler.sample_many(40, faults=0):
            static_total += simulate(fig1_app, root, scenario).utility
            replan_total += run_replanning(fig1_app, scenario).result.utility
        assert replan_total >= static_total - 1e-9
