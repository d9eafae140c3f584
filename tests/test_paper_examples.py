"""Golden tests: every worked numeric example of the paper.

Each test names the figure/section it reproduces; together they pin
the implementation to the paper's semantics (utility model, stale
values, recovery arithmetic, static-vs-quasi-static behaviour).
"""

import pytest

from repro.examples_support import (
    paper_fig1_application,
    paper_fig2_utilities,
    paper_fig3_recovery,
    paper_fig8_application,
)
from repro.faults.injection import average_case_scenario, scenario_with_times
from repro.faults.model import FaultScenario
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.runtime.online import simulate
from repro.scheduling.dropping import removal_utilities
from repro.scheduling.fschedule import (
    FSchedule,
    ScheduledEntry,
    shared_recovery_demand,
)
from repro.scheduling.ftss import ftss
from repro.scheduling.schedulability import candidate_schedule


class TestFig2UtilityExamples:
    """§2.1: Ua(60) = 20; Ub(50) + Uc(110) = 15 + 10 = 25."""

    def test_panel_a(self):
        fns = paper_fig2_utilities()
        assert fns["Ua"](60) == 20

    def test_panel_b(self):
        fns = paper_fig2_utilities()
        assert fns["Ub"](50) + fns["Uc"](110) == 25


class TestFig3Recovery:
    """§2.2: P1 (30 ms) with k = 2 and µ = 5 occupies 100 ms worst
    case: three executions plus two recovery overheads."""

    def test_worst_case_occupation(self):
        wcet, mu, k = paper_fig3_recovery()
        assert (k + 1) * wcet + k * mu == 100
        assert wcet + shared_recovery_demand([(wcet + mu, k)], k) == 100


class TestSection21StaleValues:
    """§2.1 worked α propagation (tested in depth in test_stale)."""

    def test_fig8_alpha_two_thirds(self):
        app = paper_fig8_application()
        from repro.utility.stale import stale_coefficient

        assert stale_coefficient(
            app.graph, "P4", dropped=["P2"]
        ) == pytest.approx(2 / 3)


class TestFig4StaticScheduling:
    """§3: the S1/S2 comparison at average times and the early case."""

    def test_s1_average_utility_30(self):
        app = paper_fig1_application()
        s1 = FSchedule(
            app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 0),
                ScheduledEntry("P3", 0),
            ],
        )
        result = simulate(app, s1, average_case_scenario(app))
        assert result.completion_times == {"P1": 50, "P2": 100, "P3": 160}
        assert result.utility == 30.0

    def test_s2_average_utility_60(self):
        app = paper_fig1_application()
        s2 = FSchedule(
            app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P3", 0),
                ScheduledEntry("P2", 0),
            ],
        )
        result = simulate(app, s2, average_case_scenario(app))
        assert result.completion_times == {"P1": 50, "P3": 110, "P2": 160}
        assert result.utility == 60.0

    def test_early_p1_favours_s1_with_70(self):
        """Fig. 4b5: P1 at 30 -> S1 ordering earns U2(80) + U3(140) =
        40 + 30 = 70."""
        app = paper_fig1_application()
        s1 = FSchedule(
            app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 0),
                ScheduledEntry("P3", 0),
            ],
        )
        scenario = scenario_with_times(app, {"P1": 30, "P2": 50, "P3": 60})
        result = simulate(app, s1, scenario)
        assert result.completion_times == {"P1": 30, "P2": 80, "P3": 140}
        assert result.utility == 70.0

    def test_recovery_slack_keeps_p1_deadline(self):
        """§3: with a recovery slack of 70 + 10, P1 meets its 180 ms
        deadline in both orderings."""
        app = paper_fig1_application()
        for order in (["P1", "P2", "P3"], ["P1", "P3", "P2"]):
            sched = FSchedule(
                app,
                [ScheduledEntry(order[0], 1)]
                + [ScheduledEntry(n, 0) for n in order[1:]],
            )
            assert sched.worst_case_completions()["P1"] == 150 <= 180
            assert sched.is_schedulable()

    def test_fig4c_overload_drops_one_soft(self):
        """With T = 250 (Fig. 4c) both soft processes cannot survive
        the worst case; the paper drops P2 and keeps P3 (schedule S3,
        utility 40 at 100 ms)."""
        app = paper_fig1_application(period=250)
        worst = FSchedule(
            app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P3", 0),
                ScheduledEntry("P2", 0),
            ],
        )
        # Fig. 4c1: the full set exceeds T = 250 in the worst case.
        assert not worst.is_schedulable()
        s3 = FSchedule(
            app,
            [ScheduledEntry("P1", 1), ScheduledEntry("P3", 0)],
        )
        s4 = FSchedule(
            app,
            [ScheduledEntry("P1", 1), ScheduledEntry("P2", 0)],
        )
        assert s3.is_schedulable() and s4.is_schedulable()
        # Fig. 4c3/c4: S3's utility U3(100) = 40 beats S4's U2(100) = 20.
        scenario = scenario_with_times(app, {"P1": 40, "P2": 60, "P3": 60})
        assert simulate(app, s3, scenario).utility == 40.0
        assert simulate(app, s4, scenario).utility == 20.0


class TestFig5QuasiStatic:
    """§3: the quasi-static tree adapts the soft ordering to the
    observed completion time of P1 and to faults."""

    def test_switch_on_early_completion(self):
        app = paper_fig1_application()
        root = ftss(app)
        tree = ftqs(app, root, FTQSConfig(max_schedules=6))
        # Early P1 -> the P2-first tail wins (utility 70 > 60).
        early = scenario_with_times(app, {"P1": 30, "P2": 50, "P3": 60})
        result = simulate(app, tree, early)
        assert result.switches
        assert result.utility == 70.0
        # Average P1 -> stay with the root (P3 first, utility 60).
        average = simulate(app, tree, average_case_scenario(app))
        assert average.utility == 60.0

    def test_fault_in_p1_still_meets_deadline(self):
        """Fig. 5 group 2: a fault in P1 consumes the recovery slack;
        the hard deadline holds and soft processes still earn what the
        late completion allows."""
        app = paper_fig1_application()
        root = ftss(app)
        tree = ftqs(app, root, FTQSConfig(max_schedules=8))
        scenario = scenario_with_times(
            app,
            {"P1": 70, "P2": 70, "P3": 80},
            FaultScenario.of({"P1": 1}),
        )
        result = simulate(app, tree, scenario)
        assert result.met_all_hard_deadlines
        # P1/2 completes at 70 + 10 + 70 = 150 <= 180.
        assert result.completion_times["P1"] == 150


class TestFig8FTSS:
    """§5.2's worked example: the dropping decision and S2H."""

    def test_dropping_comparison_80_vs_50(self):
        app = paper_fig8_application()
        keep, drops = removal_utilities(
            app, ["P2"], ["P2", "P3", "P4"], now=30, dropped=[]
        )
        assert keep == pytest.approx(80.0)
        assert drops["P2"] == pytest.approx(50.0)

    def test_s2h_schedulable_before_220(self):
        app = paper_fig8_application()
        s2h = candidate_schedule(
            app,
            prefix=[ScheduledEntry("P1", 2)],
            candidate="P2",
            fault_budget=2,
        )
        assert s2h.order == ["P1", "P2", "P5"]
        assert s2h.worst_case_completions()["P5"] <= 220
        assert s2h.is_schedulable()

    def test_ftss_keeps_p2(self):
        """Since keeping P2 wins (80 > 50), FTSS must not drop it."""
        app = paper_fig8_application()
        schedule = ftss(app)
        assert schedule is not None
        assert "P2" in schedule.order

    def test_full_application_guarantees(self):
        app = paper_fig8_application()
        schedule = ftss(app)
        for target, count in (("P1", 2), ("P5", 2), ("P1", 1)):
            scenario = scenario_with_times(
                app,
                {p.name: p.wcet for p in app.processes},
                FaultScenario.of({target: count}),
            )
            result = simulate(app, schedule, scenario)
            assert result.met_all_hard_deadlines
