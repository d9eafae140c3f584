"""Bench: the FTSS/FTQS design-choice ablations.

Measures what each FTSS/FTQS design choice contributes on a shared
30-process suite:

* ``no-dropping``   — disabling the S'/S'' dropping heuristic;
* ``private-slack`` — per-process instead of shared recovery slack;
* ``wcet-opt``      — optimizing utility at WCET instead of AET;
* ``no-intervals``  — naive always-switch instead of interval
  partitioning;
* ``online-replan`` — the §1 straw man: full FTSS re-run at every
  completion, with its per-cycle scheduling overhead.
"""

import pytest

from repro.evaluation.experiments.ablations import (
    AblationConfig,
    format_ablations,
    run_ablations,
)

DEFAULT = AblationConfig(
    n_apps=4,
    n_processes=30,
    n_scenarios=100,
    max_schedules=8,
    replanner_scenarios=5,
)


@pytest.fixture(scope="module")
def config(request):
    if request.config.getoption("--full-scale"):
        return AblationConfig(
            n_apps=20,
            n_processes=30,
            n_scenarios=2000,
            max_schedules=16,
            replanner_scenarios=20,
        )
    return DEFAULT


def test_ablations(benchmark, config):
    rows = benchmark.pedantic(
        run_ablations, args=(config,), rounds=1, iterations=1
    )
    print()
    print(format_ablations(rows))

    by_name = {r.name: r for r in rows}
    base = by_name["ftss-default"]
    assert base.utility_percent[0] == pytest.approx(100.0)
    # The full FTQS beats (or matches) plain FTSS.
    assert by_name["ftqs-default"].utility_percent[0] >= 100.0 - 1e-6
    # Interval partitioning matters: naive switching must not beat it.
    assert (
        by_name["no-intervals"].utility_percent[0]
        <= by_name["ftqs-default"].utility_percent[0] + 1.0
    )
    # The replanner is adaptive (high utility) but pays real per-cycle
    # scheduling time, unlike the quasi-static table lookups.
    if "online-replan" in by_name:
        row = by_name["online-replan"]
        assert row.overhead_ms is not None and row.overhead_ms > 0.1
