"""Tests for the FTSS static fault-tolerant scheduler (paper §5.2)."""

import pytest

from repro.faults.injection import worst_case_scenario
from repro.faults.model import FaultScenario
from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.process import hard_process, soft_process
from repro.runtime.online import simulate
from repro.scheduling.ftss import FTSSConfig, ftss
from repro.utility.functions import ConstantUtility, StepUtility


class TestFig1Root:
    def test_schedulable_and_complete(self, fig1_app):
        schedule = ftss(fig1_app)
        assert schedule is not None
        assert schedule.is_schedulable()
        assert set(schedule.order) == {"P1", "P2", "P3"}

    def test_prefers_s2_ordering_on_average(self, fig1_app):
        """S2 (P1, P3, P2) earns 60 on average vs S1's 30 (paper §3)."""
        schedule = ftss(fig1_app)
        assert schedule.order == ["P1", "P3", "P2"]
        assert schedule.expected_utility() == 60.0

    def test_hard_process_gets_k_reexecutions(self, fig1_app):
        schedule = ftss(fig1_app)
        assert schedule.reexecutions_of("P1") == fig1_app.k

    def test_overload_variant_still_schedulable(self, fig1_overload_app):
        """With T = 250 (Fig. 4c) the schedule must still guarantee P1
        even if soft processes have to be dropped in the worst case."""
        schedule = ftss(fig1_overload_app)
        assert schedule is not None
        assert schedule.is_schedulable()
        assert "P1" in schedule.order


class TestGuarantees:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_worst_case_fault_scenarios_meet_deadlines(self, seed):
        from repro.workloads.suite import WorkloadSpec, generate_application

        app = generate_application(
            WorkloadSpec(n_processes=15), seed=seed
        )
        schedule = ftss(app)
        assert schedule is not None
        # Worst execution times + k faults on the most expensive hard
        # process: the canonical worst case.
        worst_hard = max(
            (p for p in app.hard if p.name in schedule),
            key=lambda p: app.recovery_need(p.name),
        )
        scenario = worst_case_scenario(
            app, FaultScenario.of({worst_hard.name: app.k})
        )
        result = simulate(app, schedule, scenario)
        assert result.met_all_hard_deadlines

    def test_unschedulable_application_returns_none(self):
        graph = ProcessGraph(
            [hard_process("H1", 50, 90, 100), hard_process("H2", 50, 90, 150)],
            [],
            period=400,
        )
        app = Application(graph, period=400, k=2, mu=10)
        # H1 worst case: 90 + 2*(100) = 290 > 100 -> hopeless.
        assert ftss(app) is None

    def test_soft_only_application(self):
        graph = ProcessGraph(
            [
                soft_process("A", 10, 20, ConstantUtility(10)),
                soft_process("B", 10, 20, ConstantUtility(20)),
            ],
            [],
            period=100,
        )
        app = Application(graph, period=100, k=1, mu=5)
        schedule = ftss(app)
        assert schedule is not None
        assert schedule.is_schedulable()

    def test_hard_only_application(self):
        graph = ProcessGraph(
            [
                hard_process("H1", 10, 20, 100),
                hard_process("H2", 10, 20, 200),
            ],
            [("H1", "H2")],
            period=200,
        )
        app = Application(graph, period=200, k=1, mu=5)
        schedule = ftss(app)
        assert schedule.order == ["H1", "H2"]


class TestDroppingBehaviour:
    def test_overloaded_app_drops_soft(self):
        """When everything cannot fit, soft processes are sacrificed
        and hard deadlines still hold."""
        graph = ProcessGraph(
            [
                hard_process("H", 40, 80, 200),
                soft_process("S1", 40, 90, StepUtility(40, [(150, 0)])),
                soft_process("S2", 40, 90, StepUtility(10, [(150, 0)])),
            ],
            [],
            period=220,
        )
        app = Application(graph, period=220, k=1, mu=10)
        schedule = ftss(app)
        assert schedule is not None
        assert "H" in schedule.order
        assert len(schedule.dropped) >= 1

    def test_zero_utility_soft_dropped(self):
        graph = ProcessGraph(
            [
                hard_process("H", 10, 20, 150),
                soft_process("S", 10, 20, StepUtility(10, [(5, 0)])),
            ],
            [],
            period=200,
        )
        app = Application(graph, period=200, k=1, mu=5)
        schedule = ftss(app)
        # S can never complete by t = 5; it contributes nothing.
        assert "S" in schedule.dropped


class TestSoftReexecutions:
    def test_allotted_when_beneficial(self):
        """A lone high-value soft process with plenty of slack should
        receive re-executions."""
        graph = ProcessGraph(
            [soft_process("S", 10, 20, ConstantUtility(100, cutoff=400))],
            [],
            period=500,
        )
        app = Application(graph, period=500, k=2, mu=5)
        schedule = ftss(app)
        assert schedule.reexecutions_of("S") >= 1

    def test_disabled_by_config(self):
        graph = ProcessGraph(
            [soft_process("S", 10, 20, ConstantUtility(100, cutoff=400))],
            [],
            period=500,
        )
        app = Application(graph, period=500, k=2, mu=5)
        schedule = ftss(app, config=FTSSConfig(soft_reexecution=False))
        assert schedule.reexecutions_of("S") == 0

    def test_not_allotted_when_it_kills_the_tail(self):
        """Re-executing a big soft process would starve a later, more
        valuable one — the dropping evaluation should refuse."""
        graph = ProcessGraph(
            [
                soft_process("Big", 50, 60, ConstantUtility(5, cutoff=200)),
                soft_process(
                    "Gold", 50, 60, StepUtility(100, [(130, 0)])
                ),
            ],
            [("Big", "Gold")],
            period=200,
        )
        app = Application(graph, period=200, k=1, mu=10)
        schedule = ftss(app)
        if "Big" in schedule:
            assert schedule.reexecutions_of("Big") == 0


class TestConfigurations:
    def test_wcet_optimization_changes_decisions(self, medium_app):
        default = ftss(medium_app)
        pessimist = ftss(medium_app, config=FTSSConfig(optimize_for="wcet"))
        assert default is not None and pessimist is not None
        # Both guarantee deadlines regardless of the optimization basis.
        assert default.is_schedulable()
        assert pessimist.is_schedulable()

    def test_invalid_optimize_for_rejected(self):
        with pytest.raises(ValueError):
            FTSSConfig(optimize_for="bcet")
        # A switch that is not a bool is rejected by name: the C path
        # and the oracle would read it differently.
        for field, value in (
            ("drop_heuristic", "no"),
            ("soft_reexecution", 1),
            ("slack_sharing", None),
        ):
            with pytest.raises(ValueError, match=field):
                FTSSConfig(**{field: value})
        # Retired fields.
        for field in ("fast_paths", "successor_weight"):
            with pytest.raises(TypeError, match=field):
                FTSSConfig(**{field: True})

    def test_private_slack_schedules_fewer_or_equal(self, medium_app):
        shared = ftss(medium_app)
        private = ftss(medium_app, config=FTSSConfig(slack_sharing=False))
        assert shared is not None
        if private is not None:
            assert len(private) <= len(shared)

    def test_no_dropping_config(self, medium_app):
        schedule = ftss(medium_app, config=FTSSConfig(drop_heuristic=False))
        assert schedule is not None
        assert schedule.is_schedulable()


class TestTailScheduling:
    def test_start_time_and_prior_context(self, fig1_app):
        tail = ftss(
            fig1_app,
            fault_budget=1,
            start_time=30,
            prior_completed=["P1"],
        )
        assert tail is not None
        assert set(tail.order) == {"P2", "P3"}
        assert tail.start_time == 30
        # From t = 30 the S1 ordering wins (Fig. 4b5: utility 70).
        assert tail.order == ["P2", "P3"]
        assert tail.expected_utility() == 70.0

    def test_zero_budget_tail(self, fig1_app):
        tail = ftss(
            fig1_app,
            fault_budget=0,
            start_time=100,
            prior_completed=["P1"],
        )
        assert tail is not None
        for entry in tail.entries:
            assert entry.reexecutions == 0
