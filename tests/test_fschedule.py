"""Unit tests for f-schedules and the shared-slack timing analysis."""

import re

import pytest

from repro.errors import SchedulingError
from repro.examples_support import paper_fig3_recovery
from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.process import hard_process, soft_process
from repro.scheduling.fschedule import (
    FSchedule,
    ScheduledEntry,
    shared_recovery_demand,
)
from repro.utility.functions import ConstantUtility, StepUtility


class TestSharedRecoveryDemand:
    def test_zero_faults_zero_demand(self):
        assert shared_recovery_demand([(40, 3)], 0) == 0

    def test_single_process_all_faults(self):
        # Fig. 3: P1 wcet 30, µ 5, k 2 -> 2 recoveries of 35 each.
        wcet, mu, k = paper_fig3_recovery()
        assert shared_recovery_demand([(wcet + mu, k)], k) == 70

    def test_greedy_takes_most_expensive_first(self):
        # Two faults over {cost 50 cap 1, cost 30 cap 2}: 50 + 30.
        assert shared_recovery_demand([(30, 2), (50, 1)], 2) == 80

    def test_caps_respected(self):
        # Three faults but expensive process capped at 1.
        assert shared_recovery_demand([(50, 1), (10, 5)], 3) == 70

    def test_fewer_recoverable_than_faults(self):
        assert shared_recovery_demand([(50, 1)], 3) == 50

    def test_sharing_beats_private_reservation(self):
        """Shared slack never exceeds per-process private slack."""
        needs = [(40, 2), (30, 2), (20, 2)]
        k = 2
        shared = shared_recovery_demand(needs, k)
        private = sum(cost * min(cap, k) for cost, cap in needs)
        assert shared <= private


def _two_proc_app(period=300, k=1, mu=10, deadline=200):
    graph = ProcessGraph(
        [
            hard_process("H", 20, 50, deadline),
            soft_process("S", 10, 40, ConstantUtility(10)),
        ],
        [],
        period=period,
    )
    return Application(graph, period=period, k=k, mu=mu)


class TestFScheduleConstruction:
    def test_order_and_positions(self):
        app = _two_proc_app()
        sched = FSchedule(
            app, [ScheduledEntry("H", 1), ScheduledEntry("S", 0)]
        )
        assert sched.order == ["H", "S"]
        assert sched.position("S") == 1
        assert "H" in sched
        assert sched.reexecutions_of("H") == 1

    def test_hard_must_have_budget_reexecutions(self):
        app = _two_proc_app(k=2)
        with pytest.raises(SchedulingError):
            FSchedule(app, [ScheduledEntry("H", 1)])

    def test_duplicate_entry_rejected(self):
        app = _two_proc_app()
        with pytest.raises(SchedulingError):
            FSchedule(
                app, [ScheduledEntry("H", 1), ScheduledEntry("H", 1)]
            )

    def test_unknown_process_rejected(self):
        app = _two_proc_app()
        with pytest.raises(SchedulingError):
            FSchedule(app, [ScheduledEntry("X", 1)])

    def test_precedence_violation_rejected(self, fig1_app):
        # P2 scheduled before its predecessor P1 (P1 not dropped - hard).
        with pytest.raises(SchedulingError):
            FSchedule(
                fig1_app,
                [ScheduledEntry("P2", 0), ScheduledEntry("P1", 1)],
            )

    def test_dropped_predecessor_allows_successor(self):
        """A soft predecessor that is dropped (stale input) does not
        block its consumer (paper §2.1)."""
        graph = ProcessGraph(
            [
                soft_process("A", 5, 10, ConstantUtility(5)),
                soft_process("B", 5, 10, ConstantUtility(5)),
            ],
            [("A", "B")],
            period=100,
        )
        app = Application(graph, period=100, k=0, mu=0)
        sched = FSchedule(app, [ScheduledEntry("B", 0)])
        assert sched.dropped == frozenset({"A"})

    def test_negative_reexecutions_rejected(self):
        with pytest.raises(SchedulingError):
            ScheduledEntry("P", -1)


def _joined_app():
    """A (soft) ∥ H (hard) → S (soft), k = 1: S's predecessors are A,
    then H."""
    graph = ProcessGraph(
        [
            soft_process("A", 10, 20, ConstantUtility(5)),
            hard_process("H", 10, 20, 200),
            soft_process("S", 10, 20, ConstantUtility(5)),
        ],
        [("A", "S"), ("H", "S")],
        period=300,
    )
    return Application(graph, period=300, k=1, mu=5)


def _raises(message):
    return pytest.raises(SchedulingError, match=f"^{re.escape(message)}$")


class TestValidationMessages:
    """Every check of ``FSchedule`` validation, with its exact message,
    and which check speaks first when several fail."""

    def test_negative_budget(self):
        with _raises("fault budget must be non-negative"):
            FSchedule(_joined_app(), [], fault_budget=-1)

    @pytest.mark.parametrize("label", ["prior_completed", "prior_dropped"])
    def test_unknown_prior(self, label):
        with _raises(f"unknown process(es) ['X', 'Y'] in {label}"):
            FSchedule(_joined_app(), [], **{label: {"Y", "X"}})

    def test_unknown_prior_completed_is_reported_first(self):
        with _raises("unknown process(es) ['X'] in prior_completed"):
            FSchedule(_joined_app(), [], prior_completed={"X"},
                      prior_dropped={"Y"})

    def test_completed_and_dropped(self):
        with _raises(
            "processes both completed and dropped before start: ['A']"
        ):
            FSchedule(_joined_app(), [], prior_completed={"A", "H"},
                      prior_dropped={"A"})

    def test_duplicate_entry(self):
        with _raises("duplicate process in schedule: ['X', 'H', 'X']"):
            FSchedule(
                _joined_app(),
                [ScheduledEntry("X", 0), ScheduledEntry("H", 1),
                 ScheduledEntry("X", 0)],
            )

    def test_unknown_entry(self):
        with _raises("unknown process 'X'"):
            FSchedule(
                _joined_app(), [ScheduledEntry("H", 1), ScheduledEntry("X", 0)]
            )

    @pytest.mark.parametrize("label", ["prior_completed", "prior_dropped"])
    def test_entry_already_settled(self, label):
        with _raises("'A' already completed/dropped before start"):
            FSchedule(
                _joined_app(),
                [ScheduledEntry("H", 1), ScheduledEntry("A", 0)],
                **{label: {"A"}},
            )

    def test_settled_entry_is_reported_before_its_cap(self):
        with _raises("'H' already completed/dropped before start"):
            FSchedule(
                _joined_app(), [ScheduledEntry("H", 0)],
                prior_completed={"H"},
            )

    def test_dropped_predecessor_is_allowed(self):
        """A soft predecessor this schedule leaves out is dropped."""
        schedule = FSchedule(
            _joined_app(), [ScheduledEntry("H", 1), ScheduledEntry("S", 0)]
        )
        assert schedule.dropped == frozenset({"A"})

    def test_prior_predecessors_are_allowed(self):
        app = _joined_app()
        FSchedule(app, [ScheduledEntry("H", 1), ScheduledEntry("S", 0)],
                  prior_dropped={"A"})
        FSchedule(app, [ScheduledEntry("S", 0)],
                  prior_completed={"A", "H"})

    def test_predecessor_neither_scheduled_nor_dropped(self):
        """H is hard, so left out it is not dropped: A (dropped) passes,
        H raises."""
        with _raises("'S' scheduled before its predecessor 'H'"):
            FSchedule(_joined_app(), [ScheduledEntry("S", 0)])

    def test_predecessor_scheduled_later(self):
        with _raises("'S' scheduled before its predecessor 'A'"):
            FSchedule(
                _joined_app(),
                [ScheduledEntry("H", 1), ScheduledEntry("S", 0),
                 ScheduledEntry("A", 0)],
            )

    def test_predecessor_is_reported_before_a_cap(self):
        with _raises("'S' scheduled before its predecessor 'H'"):
            FSchedule(
                _joined_app(),
                [ScheduledEntry("S", 0), ScheduledEntry("H", 0)],
            )

    def test_hard_cap(self):
        with _raises(
            "hard process 'H' must be allotted exactly 1 re-executions, "
            "got 0"
        ):
            FSchedule(_joined_app(), [ScheduledEntry("H", 0)])


class TestWorstCaseAnalysis:
    def test_single_hard_process(self):
        app = _two_proc_app(k=1, mu=10)
        sched = FSchedule(app, [ScheduledEntry("H", 1)])
        # WCET 50 + one recovery (50 + 10).
        assert sched.worst_case_completions()["H"] == 110

    def test_shared_slack_two_processes(self, fig1_app):
        sched = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 0),
                ScheduledEntry("P3", 0),
            ],
        )
        completions = sched.worst_case_completions()
        # P1: wcet 70 + (70 + 10) = 150 <= d = 180.
        assert completions["P1"] == 150
        # P2: 70 + 70 + 80 (same shared slack, only P1 recoverable).
        assert completions["P2"] == 220
        assert completions["P3"] == 300
        assert sched.is_schedulable()

    def test_soft_reexecutions_consume_slack(self, fig1_app):
        sched = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 1),
                ScheduledEntry("P3", 0),
            ],
        )
        # P2's recovery need (70 + 10) equals P1's; k = 1 fault.
        assert sched.worst_case_completions()["P3"] == 300
        assert sched.is_schedulable()

    def test_missing_hard_process_unschedulable(self):
        # H and S are independent; omitting the hard process H makes
        # the schedule unschedulable by definition.
        app = _two_proc_app()
        sched = FSchedule(app, [ScheduledEntry("S", 0)])
        assert not sched.is_schedulable()

    def test_period_overrun_unschedulable(self):
        app = _two_proc_app(period=100, k=1, mu=10, deadline=100)
        with_slack = FSchedule(
            app, [ScheduledEntry("H", 1), ScheduledEntry("S", 0)]
        )
        # 50 + 40 + 60 recovery = 150 > 100.
        assert not with_slack.is_schedulable()

    def test_private_slack_more_pessimistic(self, fig1_app):
        shared = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 1),
                ScheduledEntry("P3", 0),
            ],
        )
        private = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 1),
                ScheduledEntry("P3", 0),
            ],
            slack_sharing=False,
        )
        assert (
            private.worst_case_completions()["P3"]
            > shared.worst_case_completions()["P3"]
        )

    def test_start_time_shifts_everything(self, fig1_app):
        base = FSchedule(fig1_app, [ScheduledEntry("P1", 1)])
        shifted = FSchedule(
            fig1_app, [ScheduledEntry("P1", 1)], start_time=40
        )
        assert (
            shifted.worst_case_completions()["P1"]
            == base.worst_case_completions()["P1"] + 40
        )


class TestExpectedCase:
    def test_expected_completions_use_aet(self, fig1_app):
        sched = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 0),
                ScheduledEntry("P3", 0),
            ],
        )
        completions = sched.expected_completions()
        assert completions == {"P1": 50, "P2": 100, "P3": 160}

    def test_fig4_average_utilities(self, fig1_app):
        """S1 earns 30 and S2 earns 60 in the average case (paper §3)."""
        s1 = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 0),
                ScheduledEntry("P3", 0),
            ],
        )
        s2 = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P3", 0),
                ScheduledEntry("P2", 0),
            ],
        )
        assert s1.expected_utility() == 30.0
        assert s2.expected_utility() == 60.0

    def test_fig4_b5_early_completion(self, fig1_app):
        """If P1 finishes at 30, the S1 ordering earns 70 (Fig. 4b5)."""
        s1_tail = FSchedule(
            fig1_app,
            [ScheduledEntry("P2", 0), ScheduledEntry("P3", 0)],
            start_time=30,
            prior_completed=["P1"],
        )
        assert s1_tail.expected_utility() == 70.0

    def test_completions_beyond_period_earn_nothing(self):
        graph = ProcessGraph(
            [
                soft_process("A", 50, 60, StepUtility(10, [])),
                soft_process("B", 50, 60, StepUtility(10, [])),
            ],
            [],
            period=100,
        )
        app = Application(graph, period=100, k=0, mu=0)
        sched = FSchedule(
            app, [ScheduledEntry("A", 0), ScheduledEntry("B", 0)]
        )
        # A completes at 55, B at 110 > period -> only A counts.
        assert sched.expected_utility() == 10.0

    def test_dropped_predecessor_degrades_utility(self, fig8_app):
        sched = FSchedule(
            fig8_app,
            [
                ScheduledEntry("P1", 2),
                ScheduledEntry("P3", 0),
                ScheduledEntry("P4", 0),
                ScheduledEntry("P5", 2),
            ],
        )
        assert "P2" in sched.dropped
        # P3 at 60 -> 30; P4 at 90 with alpha 2/3 -> 20.
        assert sched.expected_utility() == pytest.approx(50.0)


class TestDerivation:
    def test_signature_ignores_context(self, fig1_app):
        a = FSchedule(fig1_app, [ScheduledEntry("P1", 1)])
        b = FSchedule(
            fig1_app, [ScheduledEntry("P1", 1)], start_time=40
        )
        assert a.signature() == b.signature()

    def test_tail_context(self, fig1_app):
        sched = FSchedule(
            fig1_app,
            [
                ScheduledEntry("P1", 1),
                ScheduledEntry("P2", 0),
                ScheduledEntry("P3", 0),
            ],
        )
        ctx = sched.tail_context(upto=0, completion_time=42)
        assert ctx["start_time"] == 42
        assert ctx["prior_completed"] == frozenset({"P1"})
        tail = FSchedule(
            fig1_app,
            [ScheduledEntry("P3", 0), ScheduledEntry("P2", 0)],
            fault_budget=1,
            **ctx,
        )
        assert tail.order == ["P3", "P2"]

    def test_tail_context_bad_position(self, fig1_app):
        sched = FSchedule(fig1_app, [ScheduledEntry("P1", 1)])
        with pytest.raises(SchedulingError):
            sched.tail_context(upto=5, completion_time=10)

    def test_with_entries_preserves_context(self, fig1_app):
        sched = FSchedule(
            fig1_app, [ScheduledEntry("P1", 1)], start_time=10
        )
        derived = sched.with_entries(
            [ScheduledEntry("P1", 1), ScheduledEntry("P2", 0)]
        )
        assert derived.start_time == 10
        assert derived.order == ["P1", "P2"]
