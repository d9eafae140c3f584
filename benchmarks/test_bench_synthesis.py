"""Design-time throughput benchmark: reference FTQS vs the fast
synthesis engine.

Measures tree-construction wall time on the Table 1 synthesis axis —
a 30-process, k = 3 application swept over the paper's tree sizes M —
asserting the trees are identical and that the fast engine clears a
**3x single-job floor** on the sweep aggregate (measured ~4-6x: the
memoized tail scheduler and the incremental similarity pay off more
the larger M gets).  A ``jobs=4`` axis exercises the parallel
candidate layer (equality always asserted; the speed comparison only
on boxes with >= 4 CPUs, like the engine bench).

With ``--record``, every measured axis is appended to
``BENCH_synthesis.json`` at the repo root — a trajectory artifact
mirroring ``BENCH_engine.json``.

A tier-1 smoke slice is marked ``bench_smoke``: a seconds-long cruise
controller build with a loose 2x floor, so synthesis regressions fail
fast without ``--synthesis-full``.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.quasistatic.ftqs import FTQSConfig, ftqs_reference
from repro.quasistatic.synthesis import SynthesisEngine, ftqs_fast
from repro.scheduling.ftss import ftss
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application

# One tree-identity definition for the whole repo: the differential
# suite owns it (the repo root is on sys.path via the root conftest).
from tests.test_synthesis_differential import assert_trees_identical

bench_smoke = pytest.mark.bench_smoke

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_synthesis.json"


@pytest.fixture(scope="module")
def table1_app():
    """One Table 1-style application (30 processes, half soft, k=3)."""
    rng = np.random.default_rng(2008)
    spec = WorkloadSpec(n_processes=30, soft_ratio=0.5, k=3, mu=15)
    while True:
        app = generate_application(spec, rng=rng)
        root = ftss(app)
        if root is not None:
            return app, root


def _best_of(builder, rounds=3):
    """Best-of-``rounds`` wall time; every round rebuilds from cold
    state (a fresh engine per call), so memo warm-up cannot flatter
    the measurement.  Three rounds, not two: a single descheduling
    spike on a 1-CPU box routinely survives two rounds and trips the
    ±20% trajectory gate."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = builder()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_synthesis_speedup_table1_axis(table1_app, synthesis_full, trajectory):
    """Table 1 M sweep: identical trees, >= 3x aggregate single-job."""
    app, root = table1_app
    tree_sizes = (2, 8, 13, 23, 34, 79, 89) if synthesis_full else (2, 8, 34, 89)
    t_ref_total = 0.0
    t_fast_total = 0.0
    for m in tree_sizes:
        config = FTQSConfig(max_schedules=m)
        reference, t_ref = _best_of(lambda: ftqs_reference(app, root, config))
        fast, t_fast = _best_of(lambda: ftqs_fast(app, root, config))
        assert_trees_identical(reference, fast, f"bench M={m}")
        t_ref_total += t_ref
        t_fast_total += t_fast
        print(
            f"\n[synthesis/table1/M={m}] reference {t_ref:.3f}s  "
            f"fast {t_fast:.3f}s  speedup {t_ref / t_fast:.1f}x"
        )
        trajectory.append(
            {
                "label": f"table1/M={m}",
                "reference_seconds": t_ref,
                "fast_seconds": t_fast,
                "speedup": t_ref / t_fast,
            }
        )
    speedup = t_ref_total / t_fast_total
    print(
        f"\n[synthesis/table1/aggregate] reference {t_ref_total:.3f}s  "
        f"fast {t_fast_total:.3f}s  speedup {speedup:.1f}x"
    )
    trajectory.append(
        {
            "label": "table1/aggregate",
            "reference_seconds": t_ref_total,
            "fast_seconds": t_fast_total,
            "speedup": speedup,
        }
    )
    assert speedup >= 3.0, (
        f"fast synthesis only {speedup:.1f}x over the reference on the "
        f"Table 1 axis (floor: 3x)"
    )


def test_synthesis_parallel_candidate_layer(table1_app, trajectory):
    """jobs=4 candidate sharding: identical tree; faster on >= 4 CPUs.

    The pool is spawned outside the timed window (the persistent-pool
    amortization a sweep enjoys); each round still builds with cold
    memos via a fresh engine.
    """
    app, root = table1_app
    config = FTQSConfig(max_schedules=34)

    def build_jobs4():
        with SynthesisEngine(app, config, jobs=4) as engine:
            engine._ensure_pool()  # spawn outside the timed build
            start = time.perf_counter()
            tree = engine.build(root)
            return tree, time.perf_counter() - start

    t_serial = None
    t_sharded = None
    serial = sharded = None
    for _ in range(2):
        serial, elapsed = _best_of(
            lambda: ftqs_fast(app, root, config), rounds=1
        )
        t_serial = elapsed if t_serial is None else min(t_serial, elapsed)
        sharded, elapsed = build_jobs4()
        t_sharded = elapsed if t_sharded is None else min(t_sharded, elapsed)
    assert_trees_identical(serial, sharded, "bench jobs=4")
    print(
        f"\n[synthesis/table1/jobs] jobs=1 {t_serial:.3f}s  "
        f"jobs=4 {t_sharded:.3f}s"
    )
    # sched_getaffinity respects cgroup/affinity limits; cpu_count()
    # reports the host and would assert on throttled containers.
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    trajectory.append(
        {
            "label": "table1/jobs4-vs-jobs1",
            "jobs1_seconds": t_serial,
            "jobs4_seconds": t_sharded,
            "cpu_count": cpus,
            "speedup": t_serial / t_sharded,
        }
    )
    if cpus >= 4:
        assert t_sharded < t_serial, (
            f"jobs=4 ({t_sharded:.3f}s) did not beat jobs=1 "
            f"({t_serial:.3f}s) on a {cpus}-CPU box"
        )


@bench_smoke
def test_synthesis_smoke_throughput():
    """Seconds-long tier-1 slice: cruise-controller build >= 2x.

    A deliberately loose floor — it exists to fail fast when the fast
    path regresses (memo broken, vectorized partitioning bypassed),
    not to measure peak speedup.
    """
    app = cruise_controller()
    root = ftss(app)
    assert root is not None
    config = FTQSConfig(max_schedules=8)
    reference, t_ref = _best_of(lambda: ftqs_reference(app, root, config))
    fast, t_fast = _best_of(lambda: ftqs_fast(app, root, config))
    assert_trees_identical(reference, fast, "smoke cc M=8")
    print(
        f"\n[synthesis/cc/smoke] reference {t_ref:.3f}s  fast {t_fast:.3f}s  "
        f"speedup {t_ref / t_fast:.1f}x"
    )
    assert t_fast * 2.0 <= t_ref, (
        f"smoke slice speedup collapsed to {t_ref / t_fast:.1f}x "
        "(floor: 2x) — fast-path regression?"
    )
