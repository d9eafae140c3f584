"""GIL-free threaded sharding: bit identity, fallbacks, chaos.

The acceptance bar of the threaded executor is differential: for any
thread count, ``kernel@threads:N`` must merge to the exact outcomes of
an inline ``kernel`` run — same floats, same order, same counts.  The
fallback legs pin the counted reasons (``engine-not-kernel``,
``kernel-unavailable``, ``chaos``) and that every fallback re-routes
through process sharding with unchanged results.
"""

from __future__ import annotations

import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.runtime.engine.kernel import kernel_stats
from repro.runtime.engine.threads import (
    ThreadedEvaluator,
    reset_thread_stats,
    thread_stats,
)
from repro.scheduling.ftss import ftss

engine_smoke = pytest.mark.engine_smoke


@pytest.fixture(autouse=True)
def fresh_thread_stats():
    reset_thread_stats()
    yield
    reset_thread_stats()


def assert_outcomes_identical(actual, expected):
    assert set(actual) == set(expected)
    for faults in expected:
        a, b = actual[faults], expected[faults]
        assert a.utilities.tobytes() == b.utilities.tobytes()
        assert a.mean_utility == b.mean_utility
        assert a.deadline_misses == b.deadline_misses
        assert a.mean_switches == b.mean_switches
        assert a.mean_faults == b.mean_faults
        assert a.fallbacks == b.fallbacks


# ----------------------------------------------------------------------
# Bit identity
# ----------------------------------------------------------------------
@engine_smoke
@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("app_fixture", ["fig1_app", "fig8_app"])
def test_threaded_kernel_bit_identical_to_inline(
    request, kernel_cache, app_fixture, threads
):
    """kernel@threads:N equals the inline kernel run for any N."""
    app = request.getfixturevalue(app_fixture)
    plan = ftqs(app, ftss(app), FTQSConfig(max_schedules=4))
    with MonteCarloEvaluator(app, n_scenarios=25, seed=4) as evaluator:
        inline = evaluator.evaluate(plan, execution="kernel")
        threaded = evaluator.evaluate(
            plan, execution=f"kernel@threads:{threads}"
        )
    assert_outcomes_identical(threaded, inline)
    if threads > 1:
        assert thread_stats().evaluations == 1
        assert thread_stats().shards == min(threads, 25)
        assert thread_stats().fallbacks == {}


@engine_smoke
def test_threaded_compare_reuses_one_pool(fig1_app, kernel_cache):
    """compare() over threads matches inline plan for plan."""
    root = ftss(fig1_app)
    tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=4))
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=7,
        execution="kernel@threads:2",
    ) as evaluator:
        threaded = evaluator.compare({"root": root, "tree": tree})
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=7,
        execution="kernel",
    ) as evaluator:
        inline = evaluator.compare({"root": root, "tree": tree})
    for name in inline:
        assert_outcomes_identical(threaded[name], inline[name])
    assert thread_stats().evaluations == 2


# ----------------------------------------------------------------------
# Counted fallbacks
# ----------------------------------------------------------------------
@engine_smoke
def test_non_kernel_engine_falls_back_to_processes(fig1_app):
    """reference@threads re-routes (the oracle loop holds the GIL)."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=16, fault_counts=[0, 1], seed=3
    ) as evaluator:
        inline = evaluator.evaluate(plan, execution="reference")
        threaded = evaluator.evaluate(plan, execution="reference@threads:2")
    assert_outcomes_identical(threaded, inline)
    assert thread_stats().evaluations == 0
    assert thread_stats().fallbacks == {"engine-not-kernel": 1}


@engine_smoke
def test_kernel_unavailable_falls_back_counted(
    fig1_app, kernel_cache, monkeypatch
):
    """No compiler: threads re-route to process sharding, results
    unchanged, the reason counted — and the kernel's degradation
    counted once in this process, by the simulator the threaded
    attempt builds, not again by the re-route (its workers count
    their own)."""
    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=16, fault_counts=[0, 1], seed=3
    ) as evaluator:
        inline = evaluator.evaluate(plan, execution="reference")
        before = kernel_stats().snapshot().fallbacks
        threaded = evaluator.evaluate(plan, execution="kernel@threads:2")
        after = kernel_stats().snapshot().fallbacks
    assert_outcomes_identical(threaded, inline)
    assert thread_stats().evaluations == 0
    assert thread_stats().fallbacks == {"kernel-unavailable": 1}
    gained = {
        reason: count - before.get(reason, 0)
        for reason, count in after.items()
        if count != before.get(reason, 0)
    }
    assert gained == {"no-compiler": 1}


@engine_smoke
def test_chaos_thread_fail_is_deterministic(fig1_app, kernel_cache):
    """thread-fail@1 degrades the first threaded evaluation to process
    sharding; the second runs threaded; both match the baseline."""
    from repro.pipeline import chaos

    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=5
    ) as evaluator:
        baseline = evaluator.evaluate(plan, execution="kernel")
        chaos_plan = chaos.ChaosPlan.parse("thread-fail@1")
        assert chaos_plan.thread_fail == frozenset({1})
        with chaos.active(chaos_plan):
            first = evaluator.evaluate(plan, execution="kernel@threads:2")
            second = evaluator.evaluate(plan, execution="kernel@threads:2")
    assert_outcomes_identical(first, baseline)
    assert_outcomes_identical(second, baseline)
    assert chaos_plan.thread_evals_seen == 2
    assert chaos_plan.thread_failures_injected == 1
    assert thread_stats().fallbacks == {"chaos": 1}
    assert thread_stats().evaluations == 1


def test_chaos_thread_fail_range_parses():
    from repro.pipeline import chaos

    plan = chaos.ChaosPlan.parse("thread-fail@2-4")
    assert plan.thread_fail == frozenset({2, 3, 4})


# ----------------------------------------------------------------------
# Executor mechanics
# ----------------------------------------------------------------------
def test_threaded_evaluator_rejects_non_thread_modes(fig1_app):
    from repro.errors import RuntimeModelError

    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=5)
    with pytest.raises(RuntimeModelError):
        ThreadedEvaluator(evaluator, "kernel@processes:2")


@engine_smoke
def test_single_thread_runs_inline(fig1_app, kernel_cache):
    """workers=1 (or one scenario) never pays for a thread pool, nor
    for a second simulator: the inline run builds the only one."""
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=10, fault_counts=[0], seed=3
    ) as evaluator:
        executor = evaluator.executor("kernel@threads:1")
        inline = evaluator.evaluate(plan, execution="kernel")
        assert_outcomes_identical(executor.evaluate(plan), inline)
        assert executor._pool is None
    assert thread_stats().evaluations == 0
    # The first construction lowered the plan, the second hit the memo.
    assert kernel_stats().cache_hits == 1


@engine_smoke
def test_close_shuts_pool_and_allows_reuse(fig1_app, kernel_cache):
    plan = ftss(fig1_app)
    with MonteCarloEvaluator(
        fig1_app, n_scenarios=12, fault_counts=[0], seed=3
    ) as evaluator:
        executor = evaluator.executor("kernel@threads:2")
        before = executor.evaluate(plan)
        assert executor._pool is not None
        executor.close()
        assert executor._pool is None
        after = executor.evaluate(plan)
    assert_outcomes_identical(after, before)


def test_stats_summary_and_dict_round_trip():
    stats = thread_stats()
    stats.evaluations = 2
    stats.shards = 10
    stats.count_fallback("engine-not-kernel")
    assert stats.n_fallbacks == 1
    assert stats.as_dict() == {
        "evaluations": 2,
        "shards": 10,
        "fallbacks": {"engine-not-kernel": 1},
    }
    summary = stats.summary()
    assert "2 threaded evaluation(s)" in summary
    assert "10 shard(s)" in summary
    assert "engine-not-kernel: 1" in summary
    snapshot = stats.snapshot()
    stats.count_fallback("chaos")
    assert snapshot.fallbacks == {"engine-not-kernel": 1}
