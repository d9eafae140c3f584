"""Design-time throughput benchmark: reference FTQS vs the fast
synthesis engine.

Measures tree-construction wall time on the Table 1 synthesis axis —
a 30-process, k = 3 application swept over the paper's tree sizes M —
asserting the trees are identical and that the fast engine clears a
**3x floor** on the sweep aggregate (measured ~4-6x: the
memoized tail scheduler and the incremental similarity pay off more
the larger M gets).

With ``--record``, every measured axis is appended to
``BENCH_synthesis.json`` at the repo root — a trajectory artifact
mirroring ``BENCH_engine.json``.

A tier-1 smoke slice is marked ``bench_smoke``: a seconds-long cruise
controller build with a loose 2x floor, so synthesis regressions fail
fast without ``--synthesis-full``, and the ``scheduling/ftss/smoke``
axis — root and NFT schedules of fixed generated applications, the
routed ``ftss`` against ``ftss_reference``, also with a 2x floor
(neither is recorded).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.quasistatic.ftqs import FTQSConfig, ftqs, ftqs_reference
from repro.scheduling.ftss import FTSSConfig, ftss, ftss_reference
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application

# One tree- and schedule-identity definition for the whole repo: the
# differential suites own them (the repo root is on sys.path via the
# root conftest).
from tests.test_ftss_differential import schedule_fingerprint
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
    """Table 1 M sweep: identical trees, >= 3x aggregate."""
    app, root = table1_app
    tree_sizes = (2, 8, 13, 23, 34, 79, 89) if synthesis_full else (2, 8, 34, 89)
    t_ref_total = 0.0
    t_fast_total = 0.0
    for m in tree_sizes:
        config = FTQSConfig(max_schedules=m)
        reference, t_ref = _best_of(lambda: ftqs_reference(app, root, config))
        fast, t_fast = _best_of(lambda: ftqs(app, root, config))
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
    fast, t_fast = _best_of(lambda: ftqs(app, root, config))
    assert_trees_identical(reference, fast, "smoke cc M=8")
    print(
        f"\n[synthesis/cc/smoke] reference {t_ref:.3f}s  fast {t_fast:.3f}s  "
        f"speedup {t_ref / t_fast:.1f}x"
    )
    assert t_fast * 2.0 <= t_ref, (
        f"smoke slice speedup collapsed to {t_ref / t_fast:.1f}x "
        "(floor: 2x) — fast-path regression?"
    )


@bench_smoke
def test_ftss_smoke_throughput():
    """Seconds-long tier-1 slice: the routed FTSS >= 2x its oracle.

    Root schedules and NFT schedules (FTSF's first stage:
    ``fault_budget=0``, soft re-execution off) of fixed generated
    applications, identical on both engines.  Each call builds its
    own compiled context, as every ``ftss`` call does.
    """
    nft = dict(fault_budget=0, config=FTSSConfig(soft_reexecution=False))
    calls = []
    for n_processes in (10, 20, 30, 40):
        app = generate_application(
            WorkloadSpec(n_processes=n_processes, k=3, mu=15), seed=n_processes
        )
        calls += [(app, {}), (app, nft)]

    def run_all(engine):
        return [schedule_fingerprint(engine(app, **kw)) for app, kw in calls]

    reference, t_ref = _best_of(lambda: run_all(ftss_reference))
    fast, t_fast = _best_of(lambda: run_all(ftss))
    assert fast == reference
    assert any(result is not None for result in reference)
    print(
        f"\n[scheduling/ftss/smoke] reference {t_ref:.3f}s  "
        f"fast {t_fast:.3f}s  speedup {t_ref / t_fast:.1f}x"
    )
    assert t_fast * 2.0 <= t_ref, (
        f"routed FTSS only {t_ref / t_fast:.1f}x over the reference "
        "(floor: 2x) — fast-path regression?"
    )
