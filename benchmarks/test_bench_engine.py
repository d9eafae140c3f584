"""Throughput benchmark: reference loop vs batched vs kernel engine.

Measures scenarios/second of the Monte-Carlo engines on the
cruise-controller workload (the paper's real-life case study) over the
*same* scenario sets, asserts the results are bit-identical, and
asserts speedup floors that keep the paper's 20,000-scenario
``--full-scale`` runs practical: 5x on the no-fault axis and 3x on
every mixed-fault axis (k = 1, 2) for the batched engine, where
faulted soft processes resolve against the compiled §2.2 decision
tables instead of the reference loop.  The C kernel core axes
(``cc/.../kernel-vs-*``) time ``engine="kernel"`` against both the
reference loop and the batched engine with the scenario sets already
packed — both engines share the packing cost, which the batched axes
already measure end-to-end — and assert ≥ 2x over batched on the
mixed-fault axes (they are skipped, with the counted reason, on boxes
without a C compiler).  A persistent-pool ``compare()`` benchmark
checks that ``batched@processes:4`` beats an inline run on a
multi-plan workload, and a ``kernel-threads`` axis
(``cc/compare-kernel-threads``) that ``kernel@threads:4`` beats
``kernel@processes:4`` on the same workload — the GIL-free thread
sharding skips fork and shared-memory publication entirely (asserted
— and recorded in the trajectory — only when the box actually has
≥ 4 CPUs, so 1-CPU boxes cannot pollute the history).

With ``--record``, every measured axis is appended to
``BENCH_engine.json`` at the repo root — a trajectory artifact: one
entry per recorded bench run, each axis row carrying the ``cpu_count``
it was measured on, so throughput history survives across runs.
Without it the floors are still asserted and nothing is written.

A tier-1 smoke slice is marked ``bench_smoke``
(``pytest -m bench_smoke``): seconds-long mixed-fault runs with loose
floors, so fast-path and kernel regressions fail fast without
``--full-scale``.
"""

import os
import time
from pathlib import Path

import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.scheduling.ftss import ftss
from repro.workloads.cruise import cruise_controller

bench_smoke = pytest.mark.bench_smoke

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _cpus() -> int:
    """Effective CPU count (affinity-aware, so throttled containers
    report what they can actually use)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def cc_setup():
    app = cruise_controller()
    root = ftss(app)
    assert root is not None
    tree = ftqs(app, root, FTQSConfig(max_schedules=8))
    return app, root, tree


def _time_engine(evaluator, plan, engine, rounds=3, repack=True):
    """Best-of-``rounds`` wall time (min damps scheduler noise on
    loaded boxes; three rounds because a single descheduling spike on
    a 1-CPU box routinely survives two and trips the ±20% trajectory
    gate).  With ``repack`` (the default) the batch cache is cleared
    before every round so each one pays the full end-to-end cost,
    packing included; the kernel axes pass ``repack=False`` to time
    the engines on already-packed scenario sets."""
    best = None
    outcomes = None
    for _ in range(rounds):
        if repack:
            evaluator._batches.clear()
        start = time.perf_counter()
        outcomes = evaluator.evaluate(plan, execution=engine)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return outcomes, best


def _report(label, n_scenarios, n_axes, t_ref, t_bat, rows=None):
    total = n_scenarios * n_axes
    print(
        f"\n[{label}] reference {total / t_ref:,.0f} scen/s "
        f"({t_ref:.3f}s)  batched {total / t_bat:,.0f} scen/s "
        f"({t_bat:.3f}s)  speedup {t_ref / t_bat:.1f}x"
    )
    if rows is not None:
        rows.append(
            {
                "label": label,
                "n_scenarios": total,
                "cpu_count": _cpus(),
                "reference_scen_per_s": total / t_ref,
                "batched_scen_per_s": total / t_bat,
                "speedup": t_ref / t_bat,
            }
        )


def _report_kernel(label, total, t_other, t_ker, other, rows):
    """One kernel comparison axis (vs ``other``) for the trajectory."""
    print(
        f"\n[{label}] {other} {total / t_other:,.0f} scen/s "
        f"({t_other:.3f}s)  kernel {total / t_ker:,.0f} scen/s "
        f"({t_ker:.3f}s)  speedup {t_other / t_ker:.1f}x"
    )
    rows.append(
        {
            "label": label,
            "n_scenarios": total,
            "cpu_count": _cpus(),
            f"{other}_scen_per_s": total / t_other,
            "kernel_scen_per_s": total / t_ker,
            "speedup": t_other / t_ker,
        }
    )


def test_engine_speedup_no_fault_axis(cc_setup, full_scale, trajectory):
    """>= 5x scenarios/sec on the cruise controller, 2,000 scenarios."""
    app, root, tree = cc_setup
    n = 20000 if full_scale else 2000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[0], seed=11
    )
    for plan_label, plan in (("ftss", root), ("ftqs-8", tree)):
        by_reference, t_ref = _time_engine(evaluator, plan, "reference")
        by_batch, t_bat = _time_engine(evaluator, plan, "batched")
        assert by_reference[0].utilities == by_batch[0].utilities
        assert by_reference[0].mean_utility == by_batch[0].mean_utility
        assert by_batch[0].fallbacks == 0
        _report(f"cc/{plan_label}/f=0", n, 1, t_ref, t_bat, trajectory)
        speedup = t_ref / t_bat
        assert speedup >= 5.0, (
            f"batched engine only {speedup:.1f}x over the reference "
            f"loop on {plan_label} (floor: 5x)"
        )


@pytest.mark.parametrize("faults", [1, 2])
def test_engine_speedup_single_fault_axes(
    cc_setup, full_scale, trajectory, faults
):
    """Mixed-fault axes (k = 1, 2): >= 3x via the §2.2 tables.

    Before the compiled decision tables these axes crawled (~1.3x):
    every soft-faulted scenario took the pure-Python oracle.  The
    floor pins the table path's gain.
    """
    app, _, tree = cc_setup
    n = 20000 if full_scale else 2000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[faults], seed=11
    )
    by_reference, t_ref = _time_engine(evaluator, tree, "reference")
    by_batch, t_bat = _time_engine(evaluator, tree, "batched")
    assert by_reference[faults].utilities == by_batch[faults].utilities
    assert by_batch[faults].fallbacks == 0
    _report(f"cc/ftqs-8/f={faults}", n, 1, t_ref, t_bat, trajectory)
    speedup = t_ref / t_bat
    assert speedup >= 3.0, (
        f"batched engine only {speedup:.1f}x over the reference loop "
        f"on the f={faults} axis (floor: 3x)"
    )


def test_engine_speedup_mixed_fault_axes(cc_setup, full_scale, trajectory):
    """Combined 0/1/2-fault run: identical results, >= 3x overall."""
    app, _, tree = cc_setup
    n = 20000 if full_scale else 1000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[0, 1, 2], seed=11
    )
    by_reference, t_ref = _time_engine(evaluator, tree, "reference")
    by_batch, t_bat = _time_engine(evaluator, tree, "batched")
    for faults in (0, 1, 2):
        assert (
            by_reference[faults].utilities == by_batch[faults].utilities
        )
        assert by_batch[faults].fallbacks == 0
    _report("cc/ftqs-8/f=0,1,2", n, 3, t_ref, t_bat, trajectory)
    speedup = t_ref / t_bat
    assert speedup >= 3.0, (
        f"batched engine only {speedup:.1f}x on the mixed axes "
        "(floor: 3x)"
    )


@pytest.fixture(scope="module")
def kernel_ready(cc_setup):
    """Skip the kernel axes (with the counted reason) when no kernel
    can be built on this box; builds the core and lowers the plan
    otherwise."""
    from repro.runtime.engine.kernel import KernelSimulator

    app, _, tree = cc_setup
    simulator = KernelSimulator(app, tree)
    if simulator.engine_used != "kernel":
        pytest.skip(
            f"kernel engine unavailable ({simulator.fallback_reason})"
        )


@pytest.mark.parametrize("faults", [1, 2])
def test_kernel_speedup_single_fault_axes(
    cc_setup, full_scale, trajectory, kernel_ready, faults
):
    """C kernel core on the mixed-fault axes: >= 2x over batched.

    The kernel walks each scenario once in C instead of stepping
    cohort arrays through NumPy dispatch, so its edge grows with the
    decision work per scenario — these are the axes the ROADMAP's
    compile-the-core item targeted.
    """
    app, _, tree = cc_setup
    n = 20000 if full_scale else 2000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[faults], seed=11
    )
    evaluator.evaluate(tree, execution="batched")  # pack once, warm caches
    by_reference, t_ref = _time_engine(
        evaluator, tree, "reference", repack=False
    )
    by_batch, t_bat = _time_engine(evaluator, tree, "batched", repack=False)
    by_kernel, t_ker = _time_engine(evaluator, tree, "kernel", repack=False)
    assert by_reference[faults].utilities == by_kernel[faults].utilities
    assert by_batch[faults].utilities == by_kernel[faults].utilities
    assert by_kernel[faults].fallbacks == 0
    _report_kernel(
        f"cc/ftqs-8/f={faults}/kernel-vs-ref",
        n, t_ref, t_ker, "reference", trajectory,
    )
    _report_kernel(
        f"cc/ftqs-8/f={faults}/kernel-vs-batched",
        n, t_bat, t_ker, "batched", trajectory,
    )
    assert t_ker * 2.0 <= t_bat, (
        f"kernel only {t_bat / t_ker:.1f}x over batched on the "
        f"f={faults} axis (floor: 2x)"
    )
    assert t_ker * 10.0 <= t_ref, (
        f"kernel only {t_ref / t_ker:.1f}x over the reference loop on "
        f"the f={faults} axis (floor: 10x)"
    )


def test_kernel_speedup_mixed_fault_axes(
    cc_setup, full_scale, trajectory, kernel_ready
):
    """Combined 0/1/2-fault kernel run: identical results, >= 2x."""
    app, _, tree = cc_setup
    n = 20000 if full_scale else 1000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[0, 1, 2], seed=11
    )
    evaluator.evaluate(tree, execution="batched")  # pack once, warm caches
    by_batch, t_bat = _time_engine(evaluator, tree, "batched", repack=False)
    by_kernel, t_ker = _time_engine(evaluator, tree, "kernel", repack=False)
    for faults in (0, 1, 2):
        assert by_batch[faults].utilities == by_kernel[faults].utilities
        assert by_kernel[faults].fallbacks == 0
    _report_kernel(
        "cc/ftqs-8/f=0,1,2/kernel-vs-batched",
        n * 3, t_bat, t_ker, "batched", trajectory,
    )
    assert t_ker * 2.0 <= t_bat, (
        f"kernel only {t_bat / t_ker:.1f}x over batched on the mixed "
        "axes (floor: 2x)"
    )


def test_parallel_compare_workload(cc_setup, full_scale, trajectory):
    """Per-plan compare(): jobs=4 must beat jobs=1 (on a >= 4-CPU box).

    The workload the persistent pool exists for: many small per-plan
    evaluations over the same scenario sets.  On boxes without 4 CPUs
    the timing is reported but not asserted — process parallelism
    cannot win without cores.
    """
    app, root, tree = cc_setup
    plans = {
        "ftss": root,
        "ftqs-2": ftqs(app, root, FTQSConfig(max_schedules=2)),
        "ftqs-4": ftqs(app, root, FTQSConfig(max_schedules=4)),
        "ftqs-8": tree,
    }
    n = 20000 if full_scale else 2000
    with MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[0, 1, 2], seed=11,
        execution="batched",
    ) as evaluator:
        start = time.perf_counter()
        serial = evaluator.compare(plans)
        t_serial = time.perf_counter() - start

        parallel = evaluator.executor("batched@processes:4")
        parallel.evaluate(root)  # warm the pool outside the timing
        start = time.perf_counter()
        sharded = parallel.compare(plans)
        t_sharded = time.perf_counter() - start

    for name in plans:
        for faults in (0, 1, 2):
            assert (
                serial[name][faults].utilities
                == sharded[name][faults].utilities
            )
    total = n * 3 * len(plans)
    print(
        f"\n[cc/compare x{len(plans)}] jobs=1 {total / t_serial:,.0f} "
        f"scen/s ({t_serial:.3f}s)  jobs=4 {total / t_sharded:,.0f} "
        f"scen/s ({t_sharded:.3f}s)"
    )
    # sched_getaffinity respects cgroup/affinity limits; cpu_count()
    # reports the host and would assert on throttled containers.
    cpus = _cpus()
    if cpus < 4:
        # Neither gate nor record: a jobs comparison measured without
        # the cores to parallelize (speedups like 0.43 on a 1-CPU box)
        # is noise that would pollute the trajectory history.
        print(f"[cc/compare-jobs] skipped on a {cpus}-CPU box")
        return
    trajectory.append(
        {
            "label": "cc/compare-jobs",
            "n_scenarios": total,
            "cpu_count": cpus,
            "jobs1_scen_per_s": total / t_serial,
            "jobs4_scen_per_s": total / t_sharded,
            "speedup": t_serial / t_sharded,
        }
    )
    assert t_sharded < t_serial, (
        f"jobs=4 ({t_sharded:.3f}s) did not beat jobs=1 "
        f"({t_serial:.3f}s) on a {cpus}-CPU box"
    )


def test_kernel_threads_beat_processes_compare_workload(
    cc_setup, full_scale, trajectory, kernel_ready
):
    """kernel@threads:4 must beat kernel@processes:4 (on a >= 4-CPU
    box) — the ``kernel-threads`` axis.

    The ROADMAP's GIL-free multi-core item: the kernel's ``ctypes``
    call releases the GIL for the whole batch, so thread sharding gets
    the same core budget as process sharding while skipping fork,
    shared-memory publication and result pickling entirely.  Skipped
    (neither asserted nor recorded) without the cores to parallelize.
    """
    from repro.runtime.engine.threads import (
        reset_thread_stats,
        thread_stats,
    )

    cpus = _cpus()
    if cpus < 4:
        pytest.skip(
            f"threads-vs-processes needs >= 4 CPUs, have {cpus}"
        )
    app, root, tree = cc_setup
    plans = {
        "ftss": root,
        "ftqs-2": ftqs(app, root, FTQSConfig(max_schedules=2)),
        "ftqs-4": ftqs(app, root, FTQSConfig(max_schedules=4)),
        "ftqs-8": tree,
    }
    n = 20000 if full_scale else 2000
    reset_thread_stats()
    with MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[0, 1, 2], seed=11,
        execution="kernel",
    ) as evaluator:
        threaded = evaluator.executor("kernel@threads:4")
        processes = evaluator.executor("kernel@processes:4")
        # Warm both pools (and the compiled per-shard kernels) outside
        # the timed region.
        threaded.evaluate(root)
        processes.evaluate(root)

        start = time.perf_counter()
        by_threads = threaded.compare(plans)
        t_threads = time.perf_counter() - start

        start = time.perf_counter()
        by_processes = processes.compare(plans)
        t_processes = time.perf_counter() - start

    assert thread_stats().fallbacks == {}, (
        f"threaded axis fell back: {thread_stats().summary()}"
    )
    for name in plans:
        for faults in (0, 1, 2):
            assert (
                by_threads[name][faults].utilities
                == by_processes[name][faults].utilities
            )
    total = n * 3 * len(plans)
    print(
        f"\n[cc/compare-kernel-threads x{len(plans)}] processes:4 "
        f"{total / t_processes:,.0f} scen/s ({t_processes:.3f}s)  "
        f"threads:4 {total / t_threads:,.0f} scen/s ({t_threads:.3f}s)"
    )
    trajectory.append(
        {
            "label": "cc/compare-kernel-threads",
            "n_scenarios": total,
            "cpu_count": cpus,
            "threads4_scen_per_s": total / t_threads,
            "processes4_scen_per_s": total / t_processes,
            "speedup": t_processes / t_threads,
        }
    )
    assert t_threads < t_processes, (
        f"kernel@threads:4 ({t_threads:.3f}s) did not beat "
        f"kernel@processes:4 ({t_processes:.3f}s) on a {cpus}-CPU box"
    )


@bench_smoke
def test_engine_smoke_throughput(cc_setup):
    """Seconds-long tier-1 slice: mixed-fault table path >= 2x.

    A deliberately loose floor on a small scenario count — it exists
    to fail fast when the fast path regresses (e.g. scenarios start
    leaking to the oracle), not to measure peak throughput.
    """
    app, _, tree = cc_setup
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=400, fault_counts=[0, 1, 2], seed=23
    )
    by_reference, t_ref = _time_engine(evaluator, tree, "reference")
    by_batch, t_bat = _time_engine(evaluator, tree, "batched")
    for faults in (0, 1, 2):
        assert (
            by_reference[faults].utilities == by_batch[faults].utilities
        )
        assert by_batch[faults].fallbacks == 0
    _report("cc/ftqs-8/smoke", 400, 3, t_ref, t_bat)
    assert t_bat * 2.0 <= t_ref, (
        f"smoke slice speedup collapsed to {t_ref / t_bat:.1f}x "
        "(floor: 2x) — fast-path coverage regression?"
    )


@bench_smoke
def test_kernel_smoke_throughput(cc_setup, kernel_ready):
    """Seconds-long tier-1 kernel slice: >= 2x over batched, identical.

    Exists to fail fast when the C kernel path regresses — either its
    speed (scenarios leaking to the oracle residual, a core
    pessimization) or its bit identity with the batched engine.
    """
    app, _, tree = cc_setup
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=400, fault_counts=[0, 1, 2], seed=23
    )
    evaluator.evaluate(tree, execution="batched")  # pack once, warm caches
    by_batch, t_bat = _time_engine(evaluator, tree, "batched", repack=False)
    by_kernel, t_ker = _time_engine(evaluator, tree, "kernel", repack=False)
    for faults in (0, 1, 2):
        assert by_batch[faults].utilities == by_kernel[faults].utilities
        assert by_kernel[faults].fallbacks == 0
    print(
        f"\n[cc/ftqs-8/smoke/kernel] batched {400 * 3 / t_bat:,.0f} "
        f"scen/s ({t_bat:.3f}s)  kernel {400 * 3 / t_ker:,.0f} scen/s "
        f"({t_ker:.3f}s)  speedup {t_bat / t_ker:.1f}x"
    )
    assert t_ker * 2.0 <= t_bat, (
        f"kernel smoke slice only {t_bat / t_ker:.1f}x over batched "
        "(floor: 2x) — C kernel path regression?"
    )
