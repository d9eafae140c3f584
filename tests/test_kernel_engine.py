"""The C kernel engine: build, cache, fallback and chaos.

Bit identity with the oracle is gated by
``tests/test_engine_differential.py``; this file covers the machinery
around the kernel itself — that the one C core is warning-clean under
strict flags, that it is built once and then served from the artifact
cache while every plan's lowered tables come from the in-process memo
or the ``.npz`` cache (also in a fresh process, also after a torn
``.npz``), that every way the kernel can fail to materialize (no
compiler, an unusable cache directory, injected chaos) degrades to
the reference oracle with a counted reason and identical results, and
that the stats counters stay exact under concurrent updates.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.examples_support import (
    paper_fig1_application,
    paper_fig8_application,
)
from repro.quasistatic.ftqs import FTQSConfig, ftqs_reference
from repro.runtime.engine import BatchSimulator
from repro.runtime.engine.kernel import (
    KernelSimulator,
    KernelStats,
    find_compiler,
    generate_kernel_source,
    kernel_stats,
    plan_fingerprint,
)
from repro.runtime.engine.threads import ThreadStats
from repro.scheduling.ftss import ftss, ftss_reference
from repro.workloads.cruise import cruise_controller


def _tree(app, schedules=6):
    """An FTQS plan built on the oracles, which never touch the core:
    the build, cache and fallback counters these tests read are the
    simulator's alone."""
    root = ftss_reference(app)
    assert root is not None
    return ftqs_reference(app, root, FTQSConfig(max_schedules=schedules))


def _batch(app, n=40, fault_counts=None, seed=3):
    return MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=fault_counts, seed=seed
    ).scenarios


def _assert_same_results(app, plan, simulator):
    """``simulator`` must reproduce the oracle's replay bit for bit."""
    oracle = BatchSimulator(app, plan)
    for faults, batch in _batch(app).items():
        expected = oracle.run_batch(batch)
        actual = simulator.run_batch(batch)
        assert actual.utilities.tobytes() == expected.utilities.tobytes()
        assert (actual.deadline_miss == expected.deadline_miss).all()
        assert (actual.switch_counts == expected.switch_counts).all()
        assert (actual.faults_observed == expected.faults_observed).all()
        assert actual.switch_chains == expected.switch_chains


def _needs_compiler():
    if find_compiler() is None:
        pytest.skip("no C compiler on this box")


def _three_plans():
    """The fig1, fig8 and cruise-controller FTQS plans."""
    return [
        (paper_fig1_application(), 6),
        (paper_fig8_application(), 6),
        (cruise_controller(), 4),
    ]


def _serve_plans() -> dict:
    """Construct a kernel simulator per plan; stats plus a digest of
    every result, for comparison across processes."""
    digest = hashlib.sha256()
    engines = []
    for app, schedules in _three_plans():
        simulator = KernelSimulator(app, _tree(app, schedules))
        engines.append(simulator.engine_used)
        for _, batch in sorted(_batch(app).items()):
            result = simulator.run_batch(batch)
            digest.update(result.utilities.tobytes())
            digest.update(repr(result.switch_chains).encode())
    stats = kernel_stats()
    return {
        "engines": engines,
        "compiles": stats.compiles,
        "cache_hits": stats.cache_hits,
        "fallbacks": stats.fallbacks,
        "digest": digest.hexdigest(),
    }


def _serve_plans_without_lowering() -> None:
    """Entry point of the second process: lowering is forbidden."""
    import repro.runtime.engine.kernel.dispatch as dispatch

    def refuse(*args):
        raise AssertionError("a warm table cache must not re-lower")

    dispatch.lower_plan = refuse
    print(json.dumps(_serve_plans()))


# ----------------------------------------------------------------------
# The core
# ----------------------------------------------------------------------
def test_core_compiles_warning_clean(tmp_path):
    """The core compiles alone under strict C99 with every warning an
    error, and without variable-length arrays.

    The production flags don't include warnings; this pins that the
    core never relies on the compiler being lenient, and that the
    translation unit the cache stores needs no other file.
    """
    _needs_compiler()
    c_path = tmp_path / "core.c"
    c_path.write_text(generate_kernel_source())
    proc = subprocess.run(
        [
            find_compiler(), "-std=c99", "-Wall", "-Wextra", "-Werror",
            "-Wvla", "-pedantic", "-O2", "-fPIC", "-shared",
            "-ffp-contract=off",
            "-o", str(tmp_path / "core.so"), str(c_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"core not warning-clean:\n{proc.stderr}"


def test_fingerprint_is_structural(fig1_app):
    """Same plan → same fingerprint; different plan → different."""
    tree_a = _tree(fig1_app, schedules=6)
    tree_b = _tree(fig1_app, schedules=6)
    root = ftss(fig1_app)
    sim_a = BatchSimulator(fig1_app, tree_a)
    sim_b = BatchSimulator(fig1_app, tree_b)
    sim_root = BatchSimulator(fig1_app, root)
    fp_a = plan_fingerprint(sim_a.capp, sim_a.ctree)
    assert fp_a == plan_fingerprint(sim_b.capp, sim_b.ctree)
    assert fp_a != plan_fingerprint(sim_root.capp, sim_root.ctree)


def _mixed_utility_app():
    """A hard chain feeding soft processes of every utility kind."""
    from repro.model.application import Application
    from repro.model.graph import ProcessGraph
    from repro.model.process import hard_process, soft_process
    from repro.utility.functions import (
        ConstantUtility,
        LinearUtility,
        StepUtility,
        TabulatedUtility,
    )

    utilities = {
        "S": StepUtility(40, [(90, 25), (160, 5)]),
        "C": ConstantUtility(12.5),
        "K": ConstantUtility(30, cutoff=140),
        "T": TabulatedUtility([(60, 35.5), (120, 20.25), (180, 0.0)]),
        "L": LinearUtility(50.0, 0.3),
    }
    processes = [hard_process("H", bcet=10, wcet=30, deadline=120)] + [
        soft_process(name, 10, 40, utility)
        for name, utility in utilities.items()
    ]
    edges = [("H", "S"), ("H", "T"), ("S", "C"), ("T", "L"), ("C", "K")]
    graph = ProcessGraph(processes, edges, name="mixed", period=260)
    return Application(graph, period=260, k=2, mu=5)


def test_every_utility_kind_matches_the_oracle(kernel_cache):
    """Step, constant (with and without cutoff), tabulated and linear
    utilities give the oracle's values bit for bit through the core."""
    from repro.runtime.online import OnlineScheduler

    _needs_compiler()
    app = _mixed_utility_app()
    tree = _tree(app, schedules=6)
    kernel = KernelSimulator(app, tree)
    assert kernel.engine_used == "kernel"
    oracle = OnlineScheduler(app, tree, record_events=False)
    for _, batch in _batch(app, n=200, seed=7).items():
        result = kernel.run_batch(batch)
        for i in range(batch.n_scenarios):
            outcome = oracle.run(batch.scenario(i))
            assert result.utilities[i] == outcome.utility
            assert result.switch_chains[i] == outcome.switches
    _assert_same_results(app, tree, kernel)


# ----------------------------------------------------------------------
# Cache accounting
# ----------------------------------------------------------------------
def test_cache_counts_compile_then_hits(fig1_app, kernel_cache):
    _needs_compiler()
    import repro.runtime.engine.kernel.dispatch as dispatch

    tree = _tree(fig1_app)
    first = KernelSimulator(fig1_app, tree)
    assert first.engine_used == "kernel"
    assert kernel_stats().compiles == 1
    assert kernel_stats().cache_hits == 0
    # Second construction: tables served from the in-process memo.
    second = KernelSimulator(fig1_app, tree)
    assert second.engine_used == "kernel"
    assert kernel_stats().compiles == 1
    assert kernel_stats().cache_hits == 1
    # Memo cleared, disk warm: the tables come from the .npz, not
    # from lowering again.
    dispatch._TABLES.clear()
    third = KernelSimulator(fig1_app, tree)
    assert third.engine_used == "kernel"
    assert kernel_stats().compiles == 1
    assert kernel_stats().cache_hits == 2
    # The cache holds the core (and its source, for debugging) and
    # the plan's tables.
    assert len(list(kernel_cache.glob("*.so"))) == 1
    assert len(list(kernel_cache.glob("*.c"))) == 1
    assert len(list(kernel_cache.glob("*.npz"))) == 1


def test_one_core_serves_every_plan_across_processes(kernel_cache):
    """One build for three plans; a second process builds and lowers
    nothing and reproduces every result."""
    _needs_compiler()
    first = _serve_plans()
    assert first["engines"] == ["kernel"] * 3
    assert first["compiles"] == 1
    assert first["cache_hits"] == 0
    assert len(list(kernel_cache.glob("*.so"))) == 1
    assert len(list(kernel_cache.glob("*.npz"))) == 3

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
        "import test_kernel_engine as t; "
        "t._serve_plans_without_lowering()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "REPRO_KERNEL_CACHE": str(kernel_cache)},
    )
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])
    assert second["engines"] == ["kernel"] * 3
    assert second["compiles"] == 0
    assert second["cache_hits"] == 3
    assert second["fallbacks"] == {}
    assert second["digest"] == first["digest"]


def test_truncated_tables_are_relowered(fig1_app, kernel_cache):
    """A torn ``.npz`` reads as absent: the plan is lowered again, the
    file rewritten, and the results are unchanged."""
    _needs_compiler()
    import repro.runtime.engine.kernel.dispatch as dispatch

    tree = _tree(fig1_app)
    KernelSimulator(fig1_app, tree)
    (npz,) = kernel_cache.glob("*.npz")
    whole = npz.read_bytes()
    npz.write_bytes(whole[: len(whole) // 2])
    dispatch._TABLES.clear()
    simulator = KernelSimulator(fig1_app, tree)
    assert simulator.engine_used == "kernel"
    assert kernel_stats().cache_hits == 0
    assert kernel_stats().fallbacks == {}
    assert len(npz.read_bytes()) == len(whole)
    dispatch._TABLES.clear()
    assert KernelSimulator(fig1_app, tree).engine_used == "kernel"
    assert kernel_stats().cache_hits == 1
    _assert_same_results(fig1_app, tree, simulator)


# ----------------------------------------------------------------------
# Degradation paths
# ----------------------------------------------------------------------
def test_no_compiler_falls_back_with_identical_results(
    fig1_app, kernel_cache, monkeypatch
):
    """$REPRO_CC naming an absent binary = no compiler anywhere."""
    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    tree = _tree(fig1_app)
    simulator = KernelSimulator(fig1_app, tree)
    assert simulator.engine_used == "reference"
    assert simulator.fallback_reason == "no-compiler"
    assert kernel_stats().fallbacks == {"no-compiler": 1}
    assert kernel_stats().compiles == 0
    _assert_same_results(fig1_app, tree, simulator)
    assert not list(kernel_cache.glob("*"))


def test_no_compiler_evaluator_and_jobs_still_complete(
    fig1_app, kernel_cache, monkeypatch
):
    """engine="kernel" without a compiler completes on every path."""
    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    tree = _tree(fig1_app)
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=5
    )
    with evaluator:
        by_reference = evaluator.evaluate(tree, execution="reference")
        by_kernel = evaluator.evaluate(tree, execution="kernel")
        sharded = evaluator.evaluate(
            tree, execution="kernel@processes:2"
        )
    for faults in by_reference:
        expected = by_reference[faults]
        assert by_kernel[faults].utilities == expected.utilities
        assert sharded[faults].utilities == expected.utilities
        assert by_kernel[faults].fallbacks == expected.n_scenarios
    assert kernel_stats().fallbacks.get("no-compiler", 0) >= 1


def test_unusable_cache_degrades_to_the_oracle(
    fig1_app, kernel_cache, monkeypatch, tmp_path
):
    """A kernel cache directory that cannot be created (here: below a
    regular file, which fails for root too) is a counted degradation,
    not a crash — the evaluation answers with the oracle's outcomes."""
    _needs_compiler()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(blocker / "kernels"))
    root = ftss_reference(fig1_app)
    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=20, seed=5)
    by_kernel = evaluator.evaluate(root, execution="kernel")
    by_reference = evaluator.evaluate(root, execution="reference")
    for faults in by_reference:
        assert by_kernel[faults].utilities == by_reference[faults].utilities
    assert kernel_stats().fallbacks == {"cache-unavailable": 1}
    assert kernel_stats().compiles == 0
    simulator = KernelSimulator(fig1_app, root)
    assert simulator.engine_used == "reference"
    assert simulator.fallback_reason == "cache-unavailable"
    _assert_same_results(fig1_app, root, simulator)


def test_chaos_forces_compile_failure_deterministically(
    fig1_app, kernel_cache
):
    """kernel-fail@1 degrades the first build; the second succeeds."""
    _needs_compiler()
    from repro.pipeline import chaos

    tree = _tree(fig1_app)
    plan = chaos.ChaosPlan.parse("kernel-fail@1")
    with chaos.active(plan):
        degraded = KernelSimulator(fig1_app, tree)
        assert degraded.engine_used == "reference"
        assert degraded.fallback_reason == "chaos"
        assert plan.kernel_compiles_seen == 1
        assert plan.kernel_failures_injected == 1
        _assert_same_results(fig1_app, tree, degraded)
        # Attempt 2 is not scheduled to fail: the core gets built.
        recovered = KernelSimulator(fig1_app, tree)
        assert recovered.engine_used == "kernel"
        assert plan.kernel_compiles_seen == 2
        assert plan.kernel_failures_injected == 1
    assert kernel_stats().fallbacks == {"chaos": 1}
    assert kernel_stats().compiles == 1


def test_chaos_parse_kernel_fail_tokens():
    from repro.pipeline import chaos

    plan = chaos.ChaosPlan.parse("kernel-fail@2-4,kernel-fail@7")
    assert plan.kernel_fail == frozenset({2, 3, 4, 7})
    with pytest.raises(ValueError, match="kernel-fail"):
        chaos.ChaosPlan.parse("kernel-fail@4-2")
    with pytest.raises(ValueError, match="kernel-fail"):
        chaos.ChaosPlan.parse("no-such-token@1")


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------
def test_stats_summary_and_dict_shapes():
    stats = KernelStats()
    assert stats.summary() == "0 compile(s), 0 cache hit(s)"
    stats.compiles = 2
    stats.cache_hits = 3
    stats.count_fallback("no-compiler")
    stats.count_fallback("no-compiler")
    stats.count_fallback("chaos")
    assert stats.n_fallbacks == 3
    assert stats.summary() == (
        "2 compile(s), 3 cache hit(s), 3 fallback(s) "
        "[chaos x1, no-compiler x2]"
    )
    as_dict = stats.as_dict()
    assert as_dict["compiles"] == 2
    assert as_dict["fallbacks"] == {"no-compiler": 2, "chaos": 1}
    snapshot = stats.snapshot()
    stats.count_fallback("chaos")
    assert snapshot.fallbacks == {"no-compiler": 2, "chaos": 1}


@pytest.mark.parametrize(
    "stats, bump",
    [
        (KernelStats(), lambda stats: stats.add("oracle_scenarios")),
        (ThreadStats(), lambda stats: stats.count_evaluation(1)),
    ],
    ids=["kernel", "threads"],
)
def test_stats_counters_are_thread_safe(stats, bump):
    """8 threads x 20k updates, switching threads as often as the
    interpreter allows, lose no update."""
    threads, updates = 8, 20_000

    def work():
        for _ in range(updates):
            stats.count_fallback("chaos")
            bump(stats)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    total = threads * updates
    assert stats.fallbacks == {"chaos": total}
    if isinstance(stats, KernelStats):
        assert stats.oracle_scenarios == total
    else:
        assert (stats.evaluations, stats.shards) == (total, total)


def test_forked_child_gets_free_locks():
    """A fork while another thread holds the table lock (a service
    request lowering a plan) must not deadlock the child."""
    import repro.runtime.engine.kernel.dispatch as dispatch
    import repro.runtime.engine.threads as threads

    locks = [
        dispatch._LOCK,
        dispatch.kernel_stats()._lock,
        threads.thread_stats()._lock,
    ]
    for lock in locks:
        lock.acquire()
    try:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child exits right away
            free = all(
                lock.acquire(timeout=5)
                for lock in (
                    dispatch._LOCK,
                    dispatch.kernel_stats()._lock,
                    threads.thread_stats()._lock,
                )
            )
            os._exit(0 if free else 1)
    finally:
        for lock in locks:
            lock.release()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_forked_child_loads_the_core_for_synthesis(fig1_app):
    """The design-time entry points look the core lock up per call: a
    child forked while another thread held it (a service request
    loading the core) still gets the core for its FTSS runs."""
    import signal

    import repro.runtime.engine.kernel.dispatch as dispatch
    from repro.scheduling.compiled import SchedulingContext

    _needs_compiler()
    assert SchedulingContext(fig1_app).core.reason is None
    with dispatch._LOCK:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child exits right away
            signal.alarm(10)
            core = SchedulingContext(fig1_app).core
            os._exit(0 if core.reason is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_evaluator_engine_validation(fig1_app):
    """The evaluator takes ``kernel`` as an engine and rejects unknown
    engine names, all through its one ``execution=`` spelling."""
    from repro.errors import RuntimeModelError
    from repro.evaluation.montecarlo import MonteCarloEvaluator
    from repro.execution import ENGINES

    assert "kernel" in ENGINES
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=2, execution="kernel@threads:2"
    )
    assert evaluator.execution.engine == "kernel"
    with pytest.raises(RuntimeModelError, match="unknown engine"):
        MonteCarloEvaluator(fig1_app, n_scenarios=2, execution="compiled")
