"""Cross-validation of the fast feasibility oracle against the
reference FSchedule-based probes."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.scheduling.feasibility import FeasibilityOracle, TopNeeds
from repro.scheduling.fschedule import ScheduledEntry, shared_recovery_demand
from repro.scheduling.schedulability import candidate_schedule, get_schedulable
from repro.workloads.suite import WorkloadSpec, generate_application


class TestTopNeeds:
    def test_matches_reference_demand(self):
        needs = [(40, 2), (55, 1), (30, 3), (70, 1)]
        for budget in range(5):
            top = TopNeeds(budget)
            for cost, cap in needs:
                top.add(cost, cap)
            assert top.demand() == shared_recovery_demand(needs, budget)

    def test_extra_entry(self):
        needs = [(40, 2), (30, 3)]
        budget = 3
        top = TopNeeds(budget)
        for cost, cap in needs:
            top.add(cost, cap)
        reference = shared_recovery_demand(needs + [(60, 1)], budget)
        assert top.demand(extra=(60, 1)) == reference

    def test_extra_entry_cheapest(self):
        needs = [(40, 2), (30, 3)]
        budget = 3
        top = TopNeeds(budget)
        for cost, cap in needs:
            top.add(cost, cap)
        reference = shared_recovery_demand(needs + [(5, 2)], budget)
        assert top.demand(extra=(5, 2)) == reference

    def test_zero_budget(self):
        top = TopNeeds(0)
        top.add(100, 3)
        assert top.demand() == 0

    @given(
        needs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=200),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=12,
        ),
        budget=st.integers(min_value=0, max_value=5),
        extra=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=1, max_value=200),
                st.integers(min_value=1, max_value=4),
            ),
        ),
    )
    def test_property_matches_reference(self, needs, budget, extra):
        top = TopNeeds(budget)
        for cost, cap in needs:
            top.add(cost, cap)
        all_needs = needs + ([extra] if extra else [])
        assert top.demand(extra=extra) == shared_recovery_demand(
            all_needs, budget
        )


class TestOracleAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_prefixes_agree(self, seed):
        """Build random schedule prefixes and compare oracle verdicts
        with the reference S_iH probes for every remaining process."""
        rng = np.random.default_rng(seed)
        app = generate_application(
            WorkloadSpec(n_processes=12), rng=np.random.default_rng(seed + 50)
        )
        order = app.graph.topological_order()
        budget = app.k
        cut = int(rng.integers(0, len(order)))
        prefix_names = order[:cut]
        prefix = []
        oracle = FeasibilityOracle(app, budget)
        for name in prefix_names:
            rex = (
                budget
                if app.process(name).is_hard
                else int(rng.integers(0, budget + 1))
            )
            prefix.append(ScheduledEntry(name, rex))
            oracle.on_schedule(name, rex)
        remaining = order[cut:]
        candidates = [
            n
            for n in remaining
            if all(
                p in prefix_names or not app.process(p).is_hard
                for p in app.graph.predecessors(n)
            )
        ]
        dropped = [
            n
            for n in remaining
            if app.process(n).is_soft and n not in candidates
        ]
        reference = get_schedulable(
            app, prefix, candidates, budget, prior_dropped=dropped
        )
        fast = oracle.schedulable_subset(candidates)
        assert fast == reference
        # The re-execution allotment's probes: a soft candidate with r
        # re-executions.
        for name in candidates:
            if app.process(name).is_hard:
                continue
            for r in range(1, budget + 1):
                literal = candidate_schedule(
                    app, prefix, name, budget, prior_dropped=dropped,
                    candidate_reexecutions=r,
                )
                assert oracle.check(name, reexecutions=r) == (
                    literal.is_schedulable()
                ), (name, r)

    def test_private_slack_mode(self, fig1_app):
        oracle = FeasibilityOracle(fig1_app, 1, slack_sharing=False)
        assert oracle.check("P1")

    def test_soft_reexecution_probe(self, fig8_app):
        oracle = FeasibilityOracle(fig8_app, 2)
        oracle.on_schedule("P1", 2)
        # P2 with up to 2 re-executions still fits before P5's deadline.
        assert oracle.check("P2", reexecutions=0)
        assert oracle.check("P2", reexecutions=2)

    def test_late_start_infeasible(self, fig8_app):
        oracle = FeasibilityOracle(fig8_app, 2, start_time=200)
        assert not oracle.check("P1")


class TestExtendedChains:
    """``extended()`` chains must agree with a fresh oracle built from
    the extended prefix — the invariant the fast synthesis engine's
    memoized tail scheduling leans on (it probes second-order effects
    on ``extended()`` clones instead of rebuilding oracles)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_extended_chain_matches_fresh_oracle(self, seed):
        rng = np.random.default_rng(seed)
        app = generate_application(
            WorkloadSpec(
                n_processes=int(rng.integers(8, 18)),
                k=int(rng.integers(1, 4)),
            ),
            rng=np.random.default_rng(seed + 99),
        )
        order = app.graph.topological_order()
        budget = app.k
        start_time = int(rng.integers(0, 40))
        chained = FeasibilityOracle(app, budget, start_time=start_time)
        prefix = []
        for name in order[: int(rng.integers(1, len(order)))]:
            rex = (
                budget
                if app.process(name).is_hard
                else int(rng.integers(0, budget + 1))
            )
            # Grow one oracle via extended() ...
            chained = chained.extended(name, rex)
            prefix.append((name, rex))
            # ... and rebuild a fresh one from the same prefix.
            fresh = FeasibilityOracle(app, budget, start_time=start_time)
            for done_name, done_rex in prefix:
                fresh.on_schedule(done_name, done_rex)
            scheduled = {n for n, _ in prefix}
            probes = [n for n in order if n not in scheduled]
            for candidate in probes:
                for rex_probe in (None, 0, budget):
                    assert chained.check(candidate, rex_probe) == fresh.check(
                        candidate, rex_probe
                    ), (
                        f"seed={seed} prefix={prefix} candidate={candidate} "
                        f"rex={rex_probe}"
                    )
            assert chained.schedulable_subset(probes) == (
                fresh.schedulable_subset(probes)
            )

    def test_extended_does_not_mutate_the_base(self, fig8_app):
        oracle = FeasibilityOracle(fig8_app, 2)
        before = [oracle.check(n.name) for n in fig8_app.processes]
        clone = oracle.extended("P1", 2)
        clone.extended("P2", 1)
        after = [oracle.check(n.name) for n in fig8_app.processes]
        assert before == after
