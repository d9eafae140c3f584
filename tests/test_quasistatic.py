"""Tests for the quasi-static tree, similarity, intervals and FTQS."""

import pytest

from repro.errors import SchedulingError, UnschedulableError
from repro.quasistatic.ftqs import (
    FTQSConfig,
    best_case_completion,
    ftqs,
    schedule_application,
    worst_case_completion,
)
from repro.quasistatic.intervals import (
    latest_safe_start,
    partition,
    tail_profile,
)
from repro.quasistatic.similarity import (
    order_similarity,
    schedule_similarity,
    set_similarity,
)
from repro.quasistatic.tree import QSTree, SwitchArc
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
from repro.scheduling.ftss import ftss


class TestSimilarity:
    def test_identical_orders(self):
        assert order_similarity(["A", "B"], ["A", "B"]) == 1.0
        assert set_similarity(["A", "B"], ["B", "A"]) == 1.0

    def test_disjoint(self):
        assert order_similarity(["A"], ["B"]) == 0.0
        assert set_similarity(["A"], ["B"]) == 0.0

    def test_partial_overlap(self):
        assert order_similarity(["A", "B", "C"], ["A", "C", "B"]) == pytest.approx(1 / 3)
        assert set_similarity(["A", "B"], ["A", "C"]) == pytest.approx(1 / 3)

    def test_empty(self):
        assert order_similarity([], []) == 1.0
        assert set_similarity([], []) == 1.0

    def test_schedule_similarity(self, fig1_app):
        a = FSchedule(
            fig1_app,
            [ScheduledEntry("P1", 1), ScheduledEntry("P2", 0), ScheduledEntry("P3", 0)],
        )
        b = FSchedule(
            fig1_app,
            [ScheduledEntry("P1", 1), ScheduledEntry("P3", 0), ScheduledEntry("P2", 0)],
        )
        value = schedule_similarity(a, b)
        assert 0.0 < value < 1.0
        assert schedule_similarity(a, a) == 1.0


class TestTree:
    def _tree(self, fig1_app):
        root = ftss(fig1_app)
        return QSTree(root), root

    def test_root(self, fig1_app):
        tree, root = self._tree(fig1_app)
        assert tree.root.schedule is root
        assert tree.root.is_root
        assert len(tree) == 1
        assert tree.different_schedules() == 1
        assert tree.depth() == 0

    def test_add_child_and_arc(self, fig1_app):
        tree, root = self._tree(fig1_app)
        tail = ftss(
            fig1_app, fault_budget=1, start_time=30, prior_completed=["P1"]
        )
        child = tree.add_child(
            tree.root_id, tail, switch_process="P1", assumed_faults=0, layer=1
        )
        tree.add_arc(
            tree.root_id,
            SwitchArc("P1", lo=30, hi=45, required_faults=0, target=child.node_id),
        )
        assert len(tree) == 2
        assert tree.depth() == 1
        assert tree.children(tree.root_id) == [child]
        arcs = tree.root.arcs_for("P1")
        assert len(arcs) == 1
        assert arcs[0].matches(40, 0)
        assert not arcs[0].matches(50, 0)
        tree.validate()

    def test_arc_fault_condition(self):
        arc = SwitchArc("P", lo=10, hi=20, required_faults=1, target=1)
        assert not arc.matches(15, 0)
        assert arc.matches(15, 1)
        assert arc.matches(15, 2)

    def test_invalid_arc_interval(self):
        with pytest.raises(SchedulingError):
            SwitchArc("P", lo=20, hi=10, required_faults=0, target=1)

    def test_arc_to_unknown_node_rejected(self, fig1_app):
        tree, _ = self._tree(fig1_app)
        with pytest.raises(SchedulingError):
            tree.add_arc(
                tree.root_id,
                SwitchArc("P1", lo=0, hi=1, required_faults=0, target=99),
            )

    def test_child_switch_process_must_exist(self, fig1_app):
        tree, root = self._tree(fig1_app)
        with pytest.raises(SchedulingError):
            tree.add_child(
                tree.root_id, root, switch_process="missing", assumed_faults=0, layer=1
            )

    def test_prune_unreachable(self, fig1_app):
        tree, _ = self._tree(fig1_app)
        tail = ftss(
            fig1_app, fault_budget=1, start_time=30, prior_completed=["P1"]
        )
        tree.add_child(
            tree.root_id, tail, switch_process="P1", assumed_faults=0, layer=1
        )
        # No arc points at the child -> pruned.
        removed = tree.prune_unreachable()
        assert removed == 1
        assert len(tree) == 1


class TestIntervals:
    def test_tail_profile_counts_soft_only(self, fig1_app):
        schedule = ftss(fig1_app)
        profile = tail_profile(fig1_app, schedule, from_position=1)
        assert len(profile.terms) == 2  # P3 and P2

    def test_profile_utility_decreases_with_start(self, fig1_app):
        schedule = ftss(fig1_app)
        profile = tail_profile(fig1_app, schedule, from_position=1)
        values = [profile.utility(t) for t in (30, 60, 120, 250)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_latest_safe_start_monotone(self, fig1_app):
        tail = ftss(
            fig1_app, fault_budget=1, start_time=30, prior_completed=["P1"]
        )
        safe = latest_safe_start(tail, 30, 280)
        assert safe is not None
        from repro.quasistatic.intervals import rebased

        assert rebased(tail, safe).is_schedulable()
        assert not rebased(tail, safe + 1).is_schedulable()

    def test_latest_safe_start_none_when_hopeless(self, fig8_app):
        tail = ftss(fig8_app)
        assert latest_safe_start(tail, 10_000, 20_000) is None

    def test_partition_fig1_switch_window(self, fig1_app):
        """From early completions of P1 the S1 tail (P2, P3) beats the
        S2 tail (P3, P2); from late completions it loses — interval
        partitioning must find a bounded window."""
        root = ftss(fig1_app)  # order P1, P3, P2
        s1_tail = FSchedule(
            fig1_app,
            [ScheduledEntry("P2", 0), ScheduledEntry("P3", 0)],
            start_time=30,
            fault_budget=1,
            prior_completed=["P1"],
        )
        result = partition(fig1_app, root, 0, s1_tail, 30, 150)
        assert result.beneficial
        (lo, hi) = result.intervals[0]
        assert lo == 30
        # At tc = 30 the S1 tail wins in expectation (Fig. 4b5's 70 vs
        # 60 at the averages); well before tc = 60 it loses.  The
        # paper's Fig. 5 places the flip at 40 using point utilities;
        # the expectation-based comparison is a little stricter.
        assert 30 <= hi <= 60
        assert result.improvement > 0

    def test_partition_not_beneficial_for_identical_tail(self, fig1_app):
        root = ftss(fig1_app)
        same_tail = FSchedule(
            fig1_app,
            [ScheduledEntry("P3", 0), ScheduledEntry("P2", 0)],
            start_time=30,
            fault_budget=1,
            prior_completed=["P1"],
        )
        result = partition(fig1_app, root, 0, same_tail, 30, 150)
        assert not result.beneficial


class TestFTQSBounds:
    def test_best_case_completion(self, fig1_app):
        root = ftss(fig1_app)
        # P1 at BCET, no faults.
        assert best_case_completion(fig1_app, root, 0, 0) == 30
        # One fault: 30 + (30 + 10).
        assert best_case_completion(fig1_app, root, 0, 1) == 70

    def test_worst_case_completion(self, fig1_app):
        root = ftss(fig1_app)
        # P1 at WCET + k × (70 + 10) = 150.
        assert worst_case_completion(fig1_app, root, 0) == 150

    def test_worst_case_clipped_to_period(self, fig1_app):
        root = ftss(fig1_app)
        last = len(root.entries) - 1
        assert worst_case_completion(fig1_app, root, last) <= fig1_app.period


class TestFTQS:
    def test_fig1_tree_contains_switch(self, fig1_app):
        """The paper's Fig. 5 group-1 behaviour: an arc after P1 that
        selects the alternative soft ordering."""
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=4))
        assert tree.different_schedules() >= 2
        arcs = tree.root.arcs_for("P1")
        assert arcs, "expected a switch arc after P1"

    def test_m_equal_one_keeps_single_schedule(self, fig1_app):
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=1))
        assert len(tree) == 1

    def test_size_cap_respected(self, medium_app):
        root = ftss(medium_app)
        for m in (2, 4, 8):
            tree = ftqs(medium_app, root, FTQSConfig(max_schedules=m))
            assert tree.different_schedules() <= m

    def test_all_nodes_reachable(self, medium_app):
        root = ftss(medium_app)
        tree = ftqs(medium_app, root, FTQSConfig(max_schedules=6))
        assert tree.prune_unreachable() == 0

    def test_deterministic(self, small_app):
        root = ftss(small_app)
        t1 = ftqs(small_app, root, FTQSConfig(max_schedules=6))
        t2 = ftqs(small_app, root, FTQSConfig(max_schedules=6))
        sig1 = sorted(str(n.schedule.signature()) for n in t1)
        sig2 = sorted(str(n.schedule.signature()) for n in t2)
        assert sig1 == sig2

    def test_fault_children_disabled(self, small_app):
        root = ftss(small_app)
        tree = ftqs(
            small_app,
            root,
            FTQSConfig(max_schedules=6, fault_children=False),
        )
        for node in tree:
            assert node.assumed_faults == 0

    def test_no_interval_partitioning_ablation(self, small_app):
        root = ftss(small_app)
        tree = ftqs(
            small_app,
            root,
            FTQSConfig(max_schedules=4, use_interval_partitioning=False),
        )
        tree.validate()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FTQSConfig(max_schedules=0)
        with pytest.raises(ValueError):
            FTQSConfig(max_fault_variants=-1)
        with pytest.raises(ValueError, match="interval_stride"):
            FTQSConfig(interval_stride=-1)
        # Counts must be integers (a bool is not one), switches bools.
        for field, value in (
            ("max_schedules", 2.5),
            ("max_schedules", True),
            ("max_fault_variants", "1"),
            ("interval_stride", 1.0),
            ("fault_children", "no"),
            ("use_interval_partitioning", 0),
        ):
            with pytest.raises(ValueError, match=field):
                FTQSConfig(**{field: value})


class TestSchedulingStrategy:
    def test_returns_result(self, fig1_app):
        result = schedule_application(fig1_app, max_schedules=4)
        assert result.schedulable
        assert result.root_schedule.is_schedulable()
        assert "tree nodes" in result.summary()

    def test_unschedulable_raises(self):
        from repro.model.application import Application
        from repro.model.graph import ProcessGraph
        from repro.model.process import hard_process

        graph = ProcessGraph(
            [hard_process("H", 90, 120, 125)], [], period=400
        )
        app = Application(graph, period=400, k=2, mu=10)
        with pytest.raises(UnschedulableError):
            schedule_application(app)
