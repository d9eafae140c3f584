"""Differential corpus: fast synthesis engine vs the FTQS oracle.

The fast engine (:mod:`repro.quasistatic.synthesis`) must emit trees
*identical* to the reference construction — same node ids, parents,
layers, switch conditions (arcs with their completion-time intervals
and fault requirements) and schedules (order, re-execution caps, start
times, contexts) — over randomized applications × tree sizes × fault
budgets, and for any candidate-worker count.

The fast engine schedules its tails with ``rk_ftss`` and evaluates its
interval partitioning with ``rk_expected`` in the C core; the
comparisons take the ``c_path`` fixture, so a test skips with ``kernel
engine unavailable`` when no core loads and fails when the C path
falls back.  ``rk_expected`` is also compared with
``TailProfile.expected`` directly, bit for bit, at every critical point
the corpus evaluates and on every branch of the survival model.

A tier-1-safe smoke slice runs by default;
``pytest tests/test_synthesis_differential.py --synthesis-full`` runs
the full corpus (larger applications, more seeds, the cruise
controller at the paper's M=39).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.process import soft_process
from repro.quasistatic.ftqs import FTQSConfig, ftqs, ftqs_reference
from repro.quasistatic.intervals import TailProfile, TailTerm
from repro.quasistatic.synthesis import (
    SynthesisEngine,
    SynthesisStats,
    ftqs_fast,
)
from repro.scheduling.compiled import SchedulingContext
from repro.scheduling.ftss import FTSSConfig, ftss
from repro.utility.functions import (
    ConstantUtility,
    StepUtility,
    TabulatedUtility,
)
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application


def tree_fingerprint(tree):
    """Everything the online scheduler (and the IO layer) can observe."""
    nodes = []
    for node in sorted(tree, key=lambda n: n.node_id):
        schedule = node.schedule
        nodes.append(
            (
                node.node_id,
                node.parent_id,
                node.layer,
                node.switch_process,
                node.assumed_faults,
                schedule.signature(),
                schedule.start_time,
                schedule.fault_budget,
                frozenset(schedule.prior_completed),
                frozenset(schedule.prior_dropped),
                schedule.slack_sharing,
                tuple(
                    (arc.process, arc.lo, arc.hi, arc.required_faults, arc.target)
                    for arc in node.arcs
                ),
            )
        )
    return (tree.root_id, tuple(nodes))


def assert_trees_identical(reference, fast, label=""):
    ref_print = tree_fingerprint(reference)
    fast_print = tree_fingerprint(fast)
    if ref_print == fast_print:
        return
    assert ref_print[0] == fast_print[0], f"{label}: root ids differ"
    for ref_node, fast_node in zip(ref_print[1], fast_print[1]):
        assert ref_node == fast_node, (
            f"{label}: first differing node\n"
            f"  reference: {ref_node}\n  fast:      {fast_node}"
        )
    assert len(ref_print[1]) == len(fast_print[1]), (
        f"{label}: node counts differ "
        f"({len(ref_print[1])} vs {len(fast_print[1])})"
    )


def scheduled_app(spec: WorkloadSpec, seed: int, attempts: int = 8):
    """A generated application with a feasible root, or None."""
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        app = generate_application(spec, rng=rng)
        root = ftss(app)
        if root is not None:
            return app, root
    return None


#: (n_processes, k, max_schedules, seed, part of the tier-1 smoke slice)
CORPUS = [
    (10, 1, 4, 101, True),
    (12, 2, 8, 202, True),
    (16, 3, 8, 303, True),
    (20, 2, 16, 404, False),
    (24, 3, 12, 505, False),
    (30, 3, 16, 606, False),
    (30, 3, 34, 707, False),
    (14, 0, 8, 808, False),
    (18, 4, 10, 909, False),
]


@pytest.mark.parametrize(
    "n_processes,k,max_schedules,seed,smoke",
    CORPUS,
    ids=[f"n{n}k{k}M{m}s{s}" for n, k, m, s, _ in CORPUS],
)
def test_corpus_trees_identical(
    n_processes, k, max_schedules, seed, smoke, synthesis_full, c_path
):
    if not smoke and not synthesis_full:
        pytest.skip("full corpus runs with --synthesis-full")
    produced = scheduled_app(
        WorkloadSpec(n_processes=n_processes, k=k, mu=15), seed
    )
    if produced is None:
        pytest.skip("no schedulable application for this spec/seed")
    app, root = produced
    config = FTQSConfig(max_schedules=max_schedules)
    reference = ftqs_reference(app, root, config)
    fast = ftqs_fast(app, root, config)
    assert_trees_identical(
        reference, fast, f"n={n_processes} k={k} M={max_schedules}"
    )


def test_ftqs_dispatch_routes_both_engines(fig1_app, c_path):
    root = ftss(fig1_app)
    config = FTQSConfig(max_schedules=4)
    assert_trees_identical(
        ftqs(fig1_app, root, config, synthesis="reference"),
        ftqs(fig1_app, root, config, synthesis="fast"),
        "fig1 dispatch",
    )
    with pytest.raises(ValueError):
        ftqs(fig1_app, root, config, synthesis="banana")


def test_paper_fig8_tree_identical(fig8_app, c_path):
    root = ftss(fig8_app)
    config = FTQSConfig(max_schedules=8)
    assert_trees_identical(
        ftqs_reference(fig8_app, root, config),
        ftqs_fast(fig8_app, root, config),
        "fig8",
    )


def test_cruise_controller_tree_identical(synthesis_full, c_path):
    app = cruise_controller()
    root = ftss(app)
    max_schedules = 39 if synthesis_full else 8
    config = FTQSConfig(max_schedules=max_schedules)
    assert_trees_identical(
        ftqs_reference(app, root, config),
        ftqs_fast(app, root, config),
        "cruise controller",
    )


@pytest.mark.parametrize(
    "label,config",
    [
        (
            "no-intervals",
            FTQSConfig(max_schedules=8, use_interval_partitioning=False),
        ),
        ("no-fault-children", FTQSConfig(max_schedules=8, fault_children=False)),
        ("fault-variants-2", FTQSConfig(max_schedules=8, max_fault_variants=2)),
        (
            "wcet-opt",
            FTQSConfig(
                max_schedules=8, ftss=FTSSConfig(optimize_for="wcet")
            ),
        ),
        (
            "no-dropping",
            FTQSConfig(
                max_schedules=8, ftss=FTSSConfig(drop_heuristic=False)
            ),
        ),
        (
            "no-soft-reexecution",
            FTQSConfig(
                max_schedules=8, ftss=FTSSConfig(soft_reexecution=False)
            ),
        ),
        (
            "private-slack",
            FTQSConfig(
                max_schedules=8, ftss=FTSSConfig(slack_sharing=False)
            ),
        ),
        (
            "slow-paths",
            FTQSConfig(max_schedules=8, ftss=FTSSConfig(fast_paths=False)),
        ),
    ],
)
def test_ablation_configs_identical(label, config, c_path):
    # Some configurations cannot schedule every generated application —
    # private slack in particular only fits lightly loaded, k=1 apps
    # (reserving per-process recovery time is exactly what the paper's
    # shared slack exists to avoid) — so search easier specs too.
    app = root = None
    for n_processes, k in ((14, 2), (12, 1), (8, 1)):
        for seed in (4242, 7, 99):
            rng = np.random.default_rng(seed)
            for _ in range(6):
                candidate_app = generate_application(
                    WorkloadSpec(n_processes=n_processes, k=k, mu=15),
                    rng=rng,
                )
                candidate_root = ftss(candidate_app, config=config.ftss)
                if candidate_root is not None:
                    app, root = candidate_app, candidate_root
                    break
            if root is not None:
                break
        if root is not None:
            break
    assert root is not None, (
        f"{label}: no schedulable application found across the seed pool"
    )
    assert_trees_identical(
        ftqs_reference(app, root, config),
        ftqs_fast(app, root, config),
        label,
    )


def test_jobs_do_not_change_the_tree(synthesis_full, c_path):
    """The parallel candidate layer is byte-identical for any job count."""
    produced = scheduled_app(WorkloadSpec(n_processes=14, k=2, mu=15), 1717)
    assert produced is not None
    app, root = produced
    config = FTQSConfig(max_schedules=10)
    reference = ftqs_reference(app, root, config)
    job_counts = (2, 3, 5) if synthesis_full else (2,)
    for jobs in job_counts:
        fast = ftqs_fast(app, root, config, jobs=jobs)
        assert_trees_identical(reference, fast, f"jobs={jobs}")


def test_engine_reuse_across_builds_is_stable(c_path):
    """A persistent engine (memos warm) still emits identical trees."""
    produced = scheduled_app(WorkloadSpec(n_processes=14, k=2, mu=15), 2024)
    assert produced is not None
    app, root = produced
    with SynthesisEngine(app, FTQSConfig(max_schedules=12)) as engine:
        first = engine.build(root)
        second = engine.build(root)
    assert_trees_identical(first, second, "persistent engine rebuild")
    assert_trees_identical(
        ftqs_reference(app, root, FTQSConfig(max_schedules=12)),
        second,
        "persistent engine vs reference",
    )


def test_profiles_with_linear_utilities_run_the_oracle(c_path):
    """A profile with a term that is not piecewise constant runs
    ``TailProfile.expected`` instead of ``rk_expected``, counted as
    ``nonconstant-utility``; the tails still run in C, and the tree
    equals the reference one."""
    from repro.runtime.engine.kernel import kernel_stats
    from test_ftss_differential import mixed_utility_app

    app = mixed_utility_app(2026)
    root = ftss(app)
    assert root is not None
    before = kernel_stats().snapshot().fallbacks
    config = FTQSConfig(max_schedules=8)
    assert_trees_identical(
        ftqs_reference(app, root, config),
        ftqs_fast(app, root, config),
        "linear, constant and tabulated utilities",
    )
    after = kernel_stats().snapshot().fallbacks
    counted = {
        reason: count - before.get(reason, 0)
        for reason, count in after.items()
        if count != before.get(reason, 0)
    }
    assert set(counted) == {"nonconstant-utility"}
    c_path.update(counted)


def test_stats_counters_accumulate():
    produced = scheduled_app(WorkloadSpec(n_processes=12, k=2, mu=15), 3535)
    assert produced is not None
    app, root = produced
    stats = SynthesisStats()
    ftqs_fast(app, root, FTQSConfig(max_schedules=6), stats=stats)
    assert stats.trees_built == 1
    assert stats.nodes_expanded >= 1
    assert stats.candidates_evaluated > 0
    # Serial builds schedule exactly one tail per evaluated candidate.
    assert (
        stats.tails_scheduled + stats.memo_hits == stats.candidates_evaluated
    )
    assert stats.wall_seconds > 0
    merged = SynthesisStats()
    merged.merge(stats)
    merged.merge(stats)
    assert merged.trees_built == 2
    assert "tree(s)" in merged.summary_line()


# ----------------------------------------------------------------------
# rk_expected against TailProfile.expected
# ----------------------------------------------------------------------
def assert_expected_bits(core, profile, rows, points, label):
    """``rk_expected`` over ``rows`` equals ``profile.expected`` at
    every one of ``points``, bit for bit."""
    got = core.expected(core.tail_terms(rows), points)
    want = np.array([profile.expected(tc) for tc in points])
    assert got.tobytes() == want.tobytes(), label


def test_rk_expected_on_every_corpus_profile(synthesis_full, c_path,
                                            monkeypatch):
    """Every profile the fast engine evaluates across the corpus and
    the cruise controller, at every critical point it evaluates."""
    checked = []

    def compare(engine, profile, c_terms, points):
        values = engine.ctx.core.expected(c_terms, points)
        want = np.array([profile.expected(tc) for tc in points])
        assert values.tobytes() == want.tobytes(), points
        checked.append(len(points))
        return values

    monkeypatch.setattr(SynthesisEngine, "_expectations", compare)
    builds = [
        (scheduled_app(WorkloadSpec(n_processes=n, k=k, mu=15), seed),
         max_schedules)
        for n, k, max_schedules, seed, smoke in CORPUS
        if smoke or synthesis_full
    ]
    app = cruise_controller()
    builds.append(((app, ftss(app)), 39 if synthesis_full else 8))
    for produced, max_schedules in builds:
        if produced is not None:
            app, root = produced
            ftqs_fast(app, root, FTQSConfig(max_schedules=max_schedules))
    assert len(checked) > 10 and sum(checked) > 100


def test_rk_expected_on_every_branch(c_path):
    """One survival model branch after another — one process, zero
    variance, an empty or inverted span, the normal approximation —
    for each piecewise-constant utility kind, with breakpoints before,
    at and after the period, from switch times on both sides of every
    boundary; then all terms of a profile at once."""
    period = 150
    utilities = [
        StepUtility(40, [(30, 25), (90, 10), (150, 5), (400, 1)]),
        ConstantUtility(12.5),
        ConstantUtility(30, cutoff=150),
        ConstantUtility(30, cutoff=200),
        TabulatedUtility([(0, 35.5), (60, 20.25), (150, 3.0), (170, 0.0)]),
    ]
    processes = [
        soft_process(f"S{i}", 10, 40, utility)
        for i, utility in enumerate(utilities)
    ]
    app = Application(
        ProcessGraph(processes, [], period=period),
        period=period, k=1, mu=5,
    )
    ctx = SchedulingContext(app)
    points = list(range(-60, 2 * period, 7)) + [0, 30, 31, period]
    shapes = [
        (count, variance, lo, hi)
        for count in (1, 2, 5)
        for variance in (0.0, 40.5)
        for lo, hi in ((10, 60), (35, 35), (60, 10), (0, 200))
    ]
    rows = []
    for pid in range(len(ctx.names)):
        for count, variance, lo, hi in shapes:
            term = TailTerm(
                alpha=0.37 + pid / 8, fn=ctx.utilities[pid],
                mean=(lo + hi) / 2 + 0.25, variance=variance,
                lo_sum=lo, hi_sum=hi, count=count,
            )
            row = (pid, count, lo, hi, term.alpha, term.mean, variance)
            rows.append((term, row))
            assert_expected_bits(
                ctx.core, TailProfile((term,), period), [row], points,
                f"{ctx.names[pid]} {count} {variance} {lo} {hi}",
            )
    terms, c_rows = zip(*rows)
    assert_expected_bits(
        ctx.core, TailProfile(terms, period), list(c_rows), points,
        "every term",
    )
    assert_expected_bits(ctx.core, TailProfile((), period), [], points,
                         "no term")
