"""Tests for the dropping heuristic and the MU soft priority —
including the paper's Fig. 8 worked example."""

import pytest

from repro.scheduling.dropping import (
    determine_dropping,
    forced_dropping_choice,
    greedy_soft_order,
    hypothetical_utility,
    removal_utilities,
)
from repro.scheduling.priority import (
    best_soft,
    earliest_deadline_hard,
    soft_priorities,
)


class TestGreedySoftOrder:
    def test_respects_precedence_among_candidates(self, fig8_app):
        order = greedy_soft_order(
            fig8_app, ["P2", "P3", "P4"], now=30, dropped=[]
        )
        assert order.index("P4") > order.index("P2")
        assert order.index("P4") > order.index("P3")

    def test_prefers_high_density_first(self, fig1_app):
        # At t = 50 (after P1 at AET): P3 earns 40/60 per tick vs
        # P2's 40/50... both at full value; the MU density decides.
        order = greedy_soft_order(fig1_app, ["P2", "P3"], now=50, dropped=[])
        assert set(order) == {"P2", "P3"}


class TestFig8WorkedExample:
    """Paper §5.2: keeping P2 earns 80, dropping it earns 50."""

    def test_keep_utility_is_80(self, fig8_app):
        keep, drops = removal_utilities(
            fig8_app,
            ["P2"],
            ["P2", "P3", "P4"],
            now=30,           # P1 completed (AET pinned to 30)
            dropped=[],
        )
        assert keep == pytest.approx(80.0)
        assert drops == {"P2": pytest.approx(50.0)}

    def test_p2_is_not_dropped(self, fig8_app):
        drops = determine_dropping(
            fig8_app, ["P2", "P3"], ["P2", "P3", "P4"], now=30, dropped=[]
        )
        assert "P2" not in drops


class TestDroppingDecisions:
    def test_worthless_process_dropped(self, fig1_app):
        # At now = 250, P2 and P3 earn nothing (both utilities are 0
        # past 250 and 220); dropping is at least as good as keeping.
        drops = determine_dropping(
            fig1_app, ["P2", "P3"], ["P2", "P3"], now=250, dropped=[]
        )
        assert set(drops) == {"P2", "P3"}

    def test_valuable_process_kept(self, fig1_app):
        drops = determine_dropping(
            fig1_app, ["P2", "P3"], ["P2", "P3"], now=50, dropped=[]
        )
        assert drops == []

    def test_forced_dropping_picks_cheapest(self, fig1_app):
        # At now = 50: P3 completing at 110 earns 40; P2 at 100 earns
        # 20... dropping P2 costs less.
        victim = forced_dropping_choice(
            fig1_app, ["P2", "P3"], ["P2", "P3"], now=50, dropped=[]
        )
        assert victim == "P2"

    def test_forced_dropping_empty_ready(self, fig1_app):
        assert (
            forced_dropping_choice(fig1_app, [], ["P2"], now=0, dropped=[])
            is None
        )

    def test_candidate_must_be_in_pool(self, fig1_app):
        with pytest.raises(ValueError):
            removal_utilities(fig1_app, ["P2"], ["P3"], now=0, dropped=[])

    def test_hypothetical_utility_period_cutoff(self, fig1_app):
        # Starting at 280 pushes completions past T = 300.
        value = hypothetical_utility(fig1_app, ["P2"], now=280, dropped=[])
        assert value == 0.0


class TestPriorities:
    def test_fig1_prefers_p3_at_average_time(self, fig1_app):
        """From t = 50, scheduling P3 first yields the S2 ordering the
        paper calls preferred on average."""
        priorities = soft_priorities(fig1_app, ["P2", "P3"], now=50)
        assert best_soft(priorities) == "P3"

    def test_priorities_fall_beyond_period(self, fig1_app):
        late = soft_priorities(fig1_app, ["P2"], now=290)
        assert late["P2"] == 0.0

    def test_zero_successor_weight(self, fig8_app):
        with_look = soft_priorities(
            fig8_app, ["P2"], now=30, successor_weight=0.5
        )
        without = soft_priorities(
            fig8_app, ["P2"], now=30, successor_weight=0.0
        )
        assert with_look["P2"] >= without["P2"]

    def test_non_soft_rejected(self, fig1_app):
        with pytest.raises(ValueError):
            soft_priorities(fig1_app, ["P1"], now=0)

    def test_best_soft_empty(self):
        assert best_soft({}) is None

    def test_best_soft_tie_break_deterministic(self):
        assert best_soft({"B": 1.0, "A": 1.0}) in ("A", "B")
        assert best_soft({"B": 1.0, "A": 1.0}) == best_soft(
            {"A": 1.0, "B": 1.0}
        )

    def test_edf_hard_choice(self, fig8_app):
        assert (
            earliest_deadline_hard(fig8_app, ["P1", "P5"]) == "P1"
        )

    def test_edf_hard_empty(self, fig8_app):
        assert earliest_deadline_hard(fig8_app, []) is None
