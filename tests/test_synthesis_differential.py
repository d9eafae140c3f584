"""Differential corpus: fast synthesis engine vs the FTQS oracle.

The fast engine (:mod:`repro.quasistatic.synthesis`, what
:func:`~repro.quasistatic.ftqs.ftqs` runs) must emit trees *identical*
to the reference construction — same node ids, parents, layers, switch
conditions (arcs with their completion-time intervals and fault
requirements) and schedules (order, re-execution caps, start times,
contexts) — over randomized applications × tree sizes × fault
budgets.

The fast engine schedules its tails with ``rk_ftss`` and partitions
each candidate's switch intervals with ``rk_partition`` in the C core;
the comparisons take the ``c_path`` fixture, so a test skips with
``kernel engine unavailable`` when no core loads and fails when the C
path falls back.  The tree tests also take the ``tails`` fixture: an
f-schedule must build from every raw tail ``rk_ftss`` returns, and the
latest start reported with it (the t_ic interval partitioning clamps
to) must equal ``SchedulingContext.latest_start`` of that schedule.
``rk_partition`` is also compared with ``intervals.partition``
directly — intervals equal, improvement bit for bit — on every
candidate the corpus evaluates and on hand-built cases of every
piecewise-constant utility kind, and ``rk_expected``, the profile
evaluation it runs, with ``TailProfile.expected`` on every branch of
the survival model.

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
from repro.quasistatic.ftqs import (
    FTQSConfig,
    ftqs,
    ftqs_reference,
    schedule_application,
)
from repro.quasistatic.intervals import (
    TailProfile,
    TailTerm,
    latest_safe_start,
    partition,
)
from repro.quasistatic.synthesis import SynthesisEngine, SynthesisStats
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.kernel.lower import TTERM
from repro.scheduling.compiled import SchedulingContext
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
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


@pytest.fixture
def tails(monkeypatch):
    """Every tail the fast engine schedules, checked as it arrives: an
    f-schedule builds (and validates) from the raw tail, and the latest
    start ``rk_ftss`` reports with it must equal
    ``SchedulingContext.latest_start`` over that schedule — or, for a
    tail the run's final check rejects, lie before its start.  Yields
    the raw tails checked."""
    import repro.quasistatic.synthesis as synthesis

    checked = []
    compiled = synthesis.ftss_compiled

    def checking(ctx, config, budget, start, completed, dropped):
        raw = compiled(ctx, config, budget, start, completed, dropped)
        if raw is not None:
            schedule = ctx.schedule(
                raw, budget, start, completed, dropped, config.slack_sharing
            )
            latest = ctx.latest_start(schedule)
            if raw.latest is None:
                assert latest is None or latest < start, (budget, start)
            else:
                assert raw.latest == latest, (budget, start)
        checked.append(raw)
        return raw

    monkeypatch.setattr(synthesis, "ftss_compiled", checking)
    yield checked


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
    n_processes, k, max_schedules, seed, smoke, synthesis_full, c_path,
    tails,
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
    fast = ftqs(app, root, config)
    assert_trees_identical(
        reference, fast, f"n={n_processes} k={k} M={max_schedules}"
    )
    assert tails


def test_ftqs_builds_the_reference_tree(fig1_app, c_path, tails):
    """``ftqs`` is the one FTQS entry point: the fast engine, building
    the oracle's tree.  The engine and worker selections it used to
    take are gone, so passing one is a ``TypeError``."""
    root = ftss(fig1_app)
    config = FTQSConfig(max_schedules=4)
    assert_trees_identical(
        ftqs_reference(fig1_app, root, config),
        ftqs(fig1_app, root, config),
        "fig1",
    )
    assert tails
    for retired in ({"synthesis": "reference"}, {"jobs": 2}, {"pool": None}):
        with pytest.raises(TypeError, match=next(iter(retired))):
            ftqs(fig1_app, root, config, **retired)
        with pytest.raises(TypeError, match=next(iter(retired))):
            schedule_application(fig1_app, 4, **retired)


def test_pipeline_rejects_retired_synthesis_keywords():
    """No driver, runner, report or service config takes a synthesis
    engine or a synthesis worker count any more."""
    from repro.analysis.report import synthesis_report
    from repro.evaluation.experiments import Table1Config, run_table1
    from repro.pipeline.runner import ExperimentRunner, synthesize_tree
    from repro.service import ServiceConfig

    with pytest.raises(TypeError, match="synthesis_jobs"):
        run_table1(Table1Config(), synthesis_jobs=2)
    with pytest.raises(TypeError, match="synthesis_jobs"):
        ServiceConfig(synthesis_jobs=2)
    with pytest.raises(TypeError, match="synthesis"):
        ServiceConfig(synthesis="reference")
    with pytest.raises(TypeError, match="synthesis"):
        ExperimentRunner(synthesis="reference")
    with pytest.raises(TypeError, match="resources"):
        synthesize_tree(None, None, FTQSConfig(), resources=None)
    with pytest.raises(TypeError, match="synthesis_jobs"):
        synthesis_report(None, synthesis_jobs=2)


def test_paper_fig8_tree_identical(fig8_app, c_path, tails):
    root = ftss(fig8_app)
    config = FTQSConfig(max_schedules=8)
    assert_trees_identical(
        ftqs_reference(fig8_app, root, config),
        ftqs(fig8_app, root, config),
        "fig8",
    )
    assert tails


def test_cruise_controller_tree_identical(synthesis_full, c_path, tails):
    app = cruise_controller()
    root = ftss(app)
    max_schedules = 39 if synthesis_full else 8
    config = FTQSConfig(max_schedules=max_schedules)
    assert_trees_identical(
        ftqs_reference(app, root, config),
        ftqs(app, root, config),
        "cruise controller",
    )
    assert tails


def test_two_mask_words_tree(synthesis_full, c_path, tails):
    """More than 64 processes, so every set takes two mask words:
    every tail's latest start is checked, and under
    ``--synthesis-full`` the tree is the reference's (whose build takes
    seconds at this size)."""
    app = generate_application(
        WorkloadSpec(n_processes=70, k=2, mu=15),
        rng=np.random.default_rng(70),
    )
    assert len(app.processes) > 64
    root = ftss(app)
    config = FTQSConfig(max_schedules=8)
    fast = ftqs(app, root, config)
    assert len(tails) > len(root)
    if synthesis_full:
        assert_trees_identical(
            ftqs_reference(app, root, config), fast, "n=70 k=2"
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
        # Explicit interval-partitioning grids, against the automatic
        # one every other case runs.
        ("stride-1", FTQSConfig(max_schedules=8, interval_stride=1)),
        ("stride-7", FTQSConfig(max_schedules=8, interval_stride=7)),
    ],
)
def test_ablation_configs_identical(label, config, c_path, tails):
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
        ftqs(app, root, config),
        label,
    )
    # Every config builds its tails with rk_ftss.
    assert tails


def test_engine_reuse_across_builds_is_stable(c_path, tails):
    """A persistent engine (memos warm) still emits identical trees."""
    produced = scheduled_app(WorkloadSpec(n_processes=14, k=2, mu=15), 2024)
    assert produced is not None
    app, root = produced
    engine = SynthesisEngine(app, FTQSConfig(max_schedules=12))
    first = engine.build(root)
    second = engine.build(root)
    assert_trees_identical(first, second, "persistent engine rebuild")
    assert_trees_identical(
        ftqs_reference(app, root, FTQSConfig(max_schedules=12)),
        second,
        "persistent engine vs reference",
    )
    assert tails


def test_profiles_with_linear_utilities_run_the_oracle(c_path):
    """A candidate whose profiles have a term that is not piecewise
    constant runs ``intervals.partition`` instead of ``rk_partition``,
    counted as ``nonconstant-utility``; the tails still run in C, and
    the tree equals the reference one."""
    from repro.runtime.engine.kernel import kernel_stats
    from test_ftss_differential import mixed_utility_app

    app = mixed_utility_app(2026)
    root = ftss(app)
    assert root is not None
    before = kernel_stats().snapshot().fallbacks
    config = FTQSConfig(max_schedules=8)
    assert_trees_identical(
        ftqs_reference(app, root, config),
        ftqs(app, root, config),
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
    ftqs(app, root, FTQSConfig(max_schedules=6), stats=stats)
    assert stats.trees_built == 1
    assert stats.nodes_expanded >= 1
    assert stats.candidates_evaluated > 0
    # A build schedules exactly one tail per evaluated candidate.
    assert (
        stats.tails_scheduled + stats.memo_hits == stats.candidates_evaluated
    )
    assert stats.wall_seconds > 0
    merged = SynthesisStats()
    merged.merge(stats)
    merged.merge(stats)
    assert merged.trees_built == 2
    assert "tree(s)" in merged.summary_line()


def test_fschedules_only_for_admitted_children(c_path, monkeypatch):
    """A build keeps its tails raw: it constructs one f-schedule per
    child it admits to the tree and none for the candidates it
    rejects."""
    produced = scheduled_app(WorkloadSpec(n_processes=16, k=3, mu=15), 303)
    assert produced is not None
    app, root = produced
    built, admitted = [], []
    construct, add_child = FSchedule.__init__, QSTree.add_child

    def counting_construct(schedule, *args, **kwargs):
        built.append(schedule)
        construct(schedule, *args, **kwargs)

    def counting_add_child(tree, parent_id, schedule, **kwargs):
        admitted.append(schedule)
        return add_child(tree, parent_id, schedule, **kwargs)

    monkeypatch.setattr(FSchedule, "__init__", counting_construct)
    monkeypatch.setattr(QSTree, "add_child", counting_add_child)
    stats = SynthesisStats()
    ftqs(app, root, FTQSConfig(max_schedules=8), stats=stats)
    assert admitted and built == admitted
    assert stats.tails_scheduled > len(admitted)
    assert (
        stats.tails_scheduled + stats.memo_hits == stats.candidates_evaluated
    )


# ----------------------------------------------------------------------
# rk_partition against intervals.partition
# ----------------------------------------------------------------------
def assert_partition_bits(ctx, parent, position, child, lo, hi, stride,
                          label):
    """``rk_partition`` of the candidate equals ``intervals.partition``:
    the same intervals and the improvement's float bits.  Returns the
    intervals."""
    want = partition(ctx.app, parent, position, child, lo, hi, stride)
    latest = ctx.latest_start(child)
    if lo <= hi:
        assert latest_safe_start(child, lo, hi) == (
            None if lo > latest else min(hi, latest)
        ), label

    def side(schedule):
        pids = [ctx.pid[e.name] for e in schedule.entries]
        return ctx.core.side(pids, ctx.mask(schedule.all_dropped))

    intervals, improvement = ctx.core.partition(
        side(parent), position + 1, side(child), lo, hi, latest, stride
    )
    assert intervals == want.intervals, label
    assert improvement.hex() == want.improvement.hex(), label
    return intervals


def test_rk_partition_on_every_corpus_candidate(synthesis_full, c_path,
                                                monkeypatch):
    """Every candidate the fast engine partitions across the corpus and
    the cruise controller: ``rk_partition``'s intervals equal
    ``intervals.partition``'s on the candidate's f-schedules, and its
    improvement has the same float bits."""
    checked = []
    switch_intervals = SynthesisEngine._switch_intervals

    def compare(engine, node, data, position, tail, start, hi):
        found = switch_intervals(engine, node, data, position, tail, start,
                                 hi)
        intervals, improvement, schedule = found
        assert schedule is None  # rk_partition ran
        want = partition(
            engine.app, node.schedule, position, engine._schedule(tail),
            start, hi, engine.config.interval_stride,
        )
        label = (node.node_id, position, start, hi)
        assert intervals == want.intervals, label
        assert improvement.hex() == want.improvement.hex(), label
        checked.append(intervals)
        return found

    monkeypatch.setattr(SynthesisEngine, "_switch_intervals", compare)
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
            ftqs(app, root, FTQSConfig(max_schedules=max_schedules))
    assert len(checked) > 50
    assert sum(map(bool, checked)) > 10 and not all(checked)


#: One soft utility of each piecewise-constant kind.  The tabulated
#: one has a sample at t=0, which lowers to breakpoint -1: no critical
#: point, although from a negative switch time it would fall inside
#: the traced range.
UTILITY_KINDS = {
    "step": StepUtility(40, [(30, 25), (90, 10), (150, 5), (400, 1)]),
    "constant": ConstantUtility(12.5),
    "constant-cutoff": ConstantUtility(30, cutoff=70),
    "tabulated": TabulatedUtility(
        [(0, 35.5), (60, 20.25), (150, 3.0), (170, 0.0)]
    ),
}


@pytest.mark.parametrize("kind", sorted(UTILITY_KINDS))
def test_rk_partition_on_every_utility_kind(kind, c_path):
    """Hand-built candidates around soft processes with one utility
    kind: the child reorders, drops or keeps the parent's tail, over
    traced ranges that start before zero, cross the period, collapse
    to one point or are empty, on the automatic grid and strides 1 and
    7."""
    utility = UTILITY_KINDS[kind]
    period = 150
    processes = [
        soft_process("S0", 5, 15, StepUtility(20, [(40, 5)])),
        soft_process("S1", 10, 40, utility),
        soft_process("S2", 8, 30, StepUtility(30, [(30, 12), (120, 2)])),
        soft_process("S3", 6, 21, utility),
    ]
    app = Application(
        ProcessGraph(processes, [("S0", "S2"), ("S1", "S3")], period=period),
        period=period, k=1, mu=5,
    )
    ctx = SchedulingContext(app)

    def schedule(names, completed=()):
        return FSchedule(
            app, [ScheduledEntry(name, 0) for name in names],
            prior_completed=completed,
        )

    parent = schedule(["S0", "S1", "S2", "S3"])
    children = [
        schedule(["S2", "S1", "S3"], {"S0"}),
        schedule(["S1", "S3"], {"S0"}),
        schedule(["S1", "S2"], {"S0"}),
        schedule(["S2"], {"S0"}),
        schedule(["S1", "S2", "S3"], {"S0"}),
    ]
    windows = [(0, 150), (20, 90), (-40, 60), (-90, -10), (100, 100),
               (140, 200), (60, 50)]
    wins = 0
    for c, child in enumerate(children):
        for lo, hi in windows:
            for stride in (0, 1, 7):
                wins += bool(assert_partition_bits(
                    ctx, parent, 0, child, lo, hi, stride,
                    f"{kind} child {c} [{lo}, {hi}] stride {stride}",
                ))
    assert wins


def test_rk_partition_margin_is_strict(c_path):
    """A child that gains exactly the margin, 1e-6, everywhere does not
    win: a constant utility of 1e-6 against a parent tail with
    nothing left to earn."""
    processes = [
        soft_process("A", 10, 20, StepUtility(10, [(50, 1)])),
        soft_process("X", 10, 20, ConstantUtility(1e-6)),
    ]
    app = Application(
        ProcessGraph(processes, [], period=100), period=100, k=1, mu=5
    )
    ctx = SchedulingContext(app)
    parent = FSchedule(app, [ScheduledEntry("A", 0)])
    child = FSchedule(app, [ScheduledEntry("X", 0)], prior_completed={"A"})
    for lo, hi in ((0, 80), (15, 30)):
        assert assert_partition_bits(
            ctx, parent, 0, child, lo, hi, 0, f"[{lo}, {hi}]"
        ) == ()


# ----------------------------------------------------------------------
# rk_expected against TailProfile.expected
# ----------------------------------------------------------------------
def assert_expected_bits(core, profile, rows, points, label):
    """``rk_expected`` over ``rows`` equals ``profile.expected`` at
    every one of ``points``, bit for bit."""
    got = core.expected(np.array(rows, dtype=TTERM), points)
    want = np.array([profile.expected(tc) for tc in points])
    assert got.tobytes() == want.tobytes(), label


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
                alpha=0.37 + pid / 8, fn=utilities[pid],
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
