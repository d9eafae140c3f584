"""Throughput benchmark: the C kernel engine vs the reference loop.

Measures scenarios/second of the Monte-Carlo engines on the
cruise-controller workload (the paper's real-life case study) over the
*same* scenario sets, asserts the results are bit-identical, and
asserts kernel-vs-reference speedup floors that keep the paper's
20,000-scenario ``--full-scale`` runs practical: 5x on the no-fault
axes, 10x on each single-fault axis (k = 1, 2) and 6x on the
combined 0/1/2-fault axis, where faulted soft processes resolve
against the lowered §2.2 tables in C instead of the reference loop.
The kernel axes are skipped, with the counted reason, on boxes without
a C compiler.  A persistent-pool ``compare()`` benchmark checks that
``kernel@processes:4`` beats an inline run on a multi-plan workload,
and a ``kernel-threads`` axis (``cc/compare-kernel-threads``) that
``kernel@threads:4`` beats ``kernel@processes:4`` on the same
workload — the GIL-free thread sharding skips fork and shared-memory
publication entirely (asserted — and recorded in the trajectory —
only when the box actually has ≥ 4 CPUs, so 1-CPU boxes cannot
pollute the history).

With ``--record``, every measured axis is appended to
``BENCH_engine.json`` at the repo root — a trajectory artifact: one
entry per recorded bench run, each axis row carrying the ``cpu_count``
it was measured on, so throughput history survives across runs.
Without it the floors are still asserted and nothing is written.

A tier-1 smoke slice is marked ``bench_smoke``
(``pytest -m bench_smoke``): a seconds-long mixed-fault run with a
looser floor, so kernel regressions fail fast without
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


def _time_engine(evaluator, plan, engine, rounds=3):
    """Best-of-``rounds`` wall time (min damps scheduler noise on
    loaded boxes; three rounds because a single descheduling spike on
    a 1-CPU box routinely survives two and trips the ±20% trajectory
    gate).  Every engine reads the evaluator's scenario arrays as
    sampled, so no round pays a packing step."""
    best = None
    outcomes = None
    for _ in range(rounds):
        start = time.perf_counter()
        outcomes = evaluator.evaluate(plan, execution=engine)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return outcomes, best


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


def _kernel_vs_reference(evaluator, plan):
    """Best-of-3 wall times ``(reference, kernel)`` on the evaluator's
    scenario sets, after checking both engines bit-identical and the
    kernel free of oracle fallbacks.  The kernel is warmed first (core
    load, plan lowering), so neither side times a one-off cost."""
    evaluator.evaluate(plan, execution="kernel")
    by_reference, t_ref = _time_engine(evaluator, plan, "reference")
    by_kernel, t_ker = _time_engine(evaluator, plan, "kernel")
    for faults, outcome in by_kernel.items():
        expected = by_reference[faults]
        assert outcome.utilities.tobytes() == expected.utilities.tobytes()
        assert outcome.mean_utility == expected.mean_utility
        assert outcome.deadline_misses == expected.deadline_misses
        assert outcome.fallbacks == 0
    return t_ref, t_ker


def _report(label, total, t_ref, t_ker, rows=None):
    """Print one kernel-vs-reference axis; with ``rows``, collect it
    for the trajectory."""
    print(
        f"\n[{label}] reference {total / t_ref:,.0f} scen/s "
        f"({t_ref:.3f}s)  kernel {total / t_ker:,.0f} scen/s "
        f"({t_ker:.3f}s)  speedup {t_ref / t_ker:.1f}x"
    )
    if rows is not None:
        rows.append(
            {
                "label": label,
                "n_scenarios": total,
                "cpu_count": _cpus(),
                "reference_scen_per_s": total / t_ref,
                "kernel_scen_per_s": total / t_ker,
                "speedup": t_ref / t_ker,
            }
        )


def test_engine_speedup_no_fault_axis(
    cc_setup, full_scale, trajectory, kernel_ready
):
    """>= 5x scenarios/sec over the reference loop, no-fault axes."""
    app, root, tree = cc_setup
    n = 20000 if full_scale else 2000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[0], seed=11
    )
    for plan_label, plan in (("ftss", root), ("ftqs-8", tree)):
        t_ref, t_ker = _kernel_vs_reference(evaluator, plan)
        _report(f"cc/{plan_label}/f=0/kernel-vs-ref", n, t_ref, t_ker,
                trajectory)
        assert t_ker * 5.0 <= t_ref, (
            f"kernel only {t_ref / t_ker:.1f}x over the reference loop "
            f"on {plan_label} (floor: 5x)"
        )


@pytest.mark.parametrize("faults", [1, 2])
def test_engine_speedup_single_fault_axes(
    cc_setup, full_scale, trajectory, kernel_ready, faults
):
    """Single-fault axes (k = 1, 2): >= 10x over the reference loop.

    Every soft-faulted scenario takes the §2.2 decision, which the
    kernel resolves against the lowered thresholds in C — these are
    the axes where the reference loop does the most work per scenario.
    """
    app, _, tree = cc_setup
    n = 20000 if full_scale else 2000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[faults], seed=11
    )
    t_ref, t_ker = _kernel_vs_reference(evaluator, tree)
    _report(f"cc/ftqs-8/f={faults}/kernel-vs-ref", n, t_ref, t_ker,
            trajectory)
    assert t_ker * 10.0 <= t_ref, (
        f"kernel only {t_ref / t_ker:.1f}x over the reference loop on "
        f"the f={faults} axis (floor: 10x)"
    )


def test_engine_speedup_mixed_fault_axes(
    cc_setup, full_scale, trajectory, kernel_ready
):
    """Combined 0/1/2-fault run: identical results, >= 6x overall."""
    app, _, tree = cc_setup
    n = 20000 if full_scale else 1000
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=[0, 1, 2], seed=11
    )
    t_ref, t_ker = _kernel_vs_reference(evaluator, tree)
    _report("cc/ftqs-8/f=0,1,2/kernel-vs-ref", n * 3, t_ref, t_ker,
            trajectory)
    assert t_ker * 6.0 <= t_ref, (
        f"kernel only {t_ref / t_ker:.1f}x over the reference loop on "
        "the mixed axes (floor: 6x)"
    )


def test_parallel_compare_workload(cc_setup, full_scale, trajectory):
    """Per-plan compare(): kernel@processes:4 must beat an inline
    kernel (on a >= 4-CPU box) — the ``cc/compare-kernel-jobs`` axis.

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
        execution="kernel",
    ) as evaluator:
        start = time.perf_counter()
        serial = evaluator.compare(plans)
        t_serial = time.perf_counter() - start

        parallel = evaluator.executor("kernel@processes:4")
        parallel.evaluate(root)  # warm the pool outside the timing
        start = time.perf_counter()
        sharded = parallel.compare(plans)
        t_sharded = time.perf_counter() - start

    for name in plans:
        for faults in (0, 1, 2):
            assert (
                serial[name][faults].utilities.tobytes()
                == sharded[name][faults].utilities.tobytes()
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
        print(f"[cc/compare-kernel-jobs] skipped on a {cpus}-CPU box")
        return
    trajectory.append(
        {
            "label": "cc/compare-kernel-jobs",
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
                by_threads[name][faults].utilities.tobytes()
                == by_processes[name][faults].utilities.tobytes()
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
def test_engine_smoke_throughput(cc_setup, kernel_ready):
    """Seconds-long tier-1 slice: mixed-fault kernel run >= 4x.

    A looser floor on a small scenario count — it exists to fail fast
    when the kernel path regresses (scenarios leaking to the oracle
    residual, a core pessimization, a bit-identity break), not to
    measure peak throughput.
    """
    app, _, tree = cc_setup
    evaluator = MonteCarloEvaluator(
        app, n_scenarios=400, fault_counts=[0, 1, 2], seed=23
    )
    t_ref, t_ker = _kernel_vs_reference(evaluator, tree)
    _report("cc/ftqs-8/smoke/kernel-vs-ref", 400 * 3, t_ref, t_ker)
    assert t_ker * 4.0 <= t_ref, (
        f"smoke slice speedup collapsed to {t_ref / t_ker:.1f}x "
        "(floor: 4x) — kernel path regression?"
    )
