"""Deadline and period assignment for generated workloads.

The paper generates applications that are schedulable but loaded
enough that soft processes compete for slack; deadlines/periods are
not published, so we derive them from worst-case bounds:

* a **hard-only bound** — the completion time of each hard process
  when the hard processes run alone in deadline-agnostic topological
  order at WCET with the full shared recovery demand — multiplied by a
  *laxity* factor gives its deadline.  Laxity >= 1 guarantees the
  application is schedulable (FTSS can always fall back to dropping
  every soft process);
* the **period** is the full worst-case load (all processes + shared
  recovery demand) scaled by a *pressure* factor: pressure >= 1 lets
  everything fit even in the worst case; pressure < 1 forces dropping
  exactly as in the paper's overload discussions (§3, Fig. 4c).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import ModelError
from repro.scheduling.fschedule import shared_recovery_demand


def hard_only_bounds(
    topo_order: Sequence[str],
    hard_names: Sequence[str],
    wcet: Dict[str, int],
    recovery_need: Dict[str, int],
    k: int,
) -> Dict[str, int]:
    """Worst-case completion of each hard process in a hard-only run.

    Hard processes execute in (the hard subsequence of) ``topo_order``
    back-to-back at WCET; after each, the shared recovery demand of
    ``k`` faults over the hard processes started so far is added.
    """
    hard_set = set(hard_names)
    bounds: Dict[str, int] = {}
    clock = 0
    needs: List[Tuple[int, int]] = []
    for name in topo_order:
        if name not in hard_set:
            continue
        clock += wcet[name]
        needs.append((recovery_need[name], k))
        bounds[name] = clock + shared_recovery_demand(needs, k)
    return bounds


def assign_deadlines(
    bounds: Dict[str, int],
    laxity: float,
    period: int,
) -> Dict[str, int]:
    """Deadline = ceil(bound × laxity), clipped into (bound, period]."""
    if laxity < 1.0:
        raise ModelError(f"laxity must be >= 1 for feasibility, got {laxity}")
    deadlines = {}
    for name, bound in bounds.items():
        deadline = int(math.ceil(bound * laxity))
        deadlines[name] = max(bound, min(deadline, period))
    return deadlines


def assign_period(
    total_wcet: int,
    max_recovery_need: int,
    k: int,
    pressure: float,
    min_period: int,
) -> int:
    """Period = worst-case load × pressure, at least ``min_period``.

    ``min_period`` must cover the largest hard deadline and the
    hard-only makespan so the application stays schedulable.
    """
    if pressure <= 0:
        raise ModelError(f"pressure must be positive, got {pressure}")
    load = total_wcet + k * max_recovery_need
    return max(min_period, int(math.ceil(load * pressure)))
