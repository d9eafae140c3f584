"""FTSF — the straightforward baseline the paper compares against (§6).

The baseline works in three steps:

1. obtain a static non-fault-tolerant schedule that produces maximal
   value (our :func:`repro.scheduling.nft.nft_schedule`, standing in
   for Cortes et al. [3]);
2. make it fault tolerant by allotting ``k`` re-executions (recovery
   slack) to the hard processes, keeping the order fixed;
3. while the resulting f-schedule is not schedulable, drop the soft
   process with the lowest utility value and try again.

"Lowest utility value" is interpreted as the smallest expected utility
contribution in the fault-free average case (its α-weighted utility at
its expected completion time): the cheapest process to sacrifice.  The
paper reports FTSF 20-70% worse than FTSS in overall utility — the
order was fixed before fault tolerance was considered, so the recovery
slack lands wherever it may, and dropping decisions cannot adapt the
order.
"""

from __future__ import annotations

from typing import List, Optional

from repro.model.application import Application
from repro.scheduling.compiled import RawTail, SchedulingContext
from repro.scheduling.feasibility import latest_start
from repro.scheduling.fschedule import FSchedule
from repro.scheduling.nft import nft_schedule
from repro.utility.stale import stale_coefficients


def _cheapest_soft(ctx: SchedulingContext, order: List[int]) -> Optional[int]:
    """The scheduled soft pid with the lowest expected utility: its
    α-weighted utility at its AET completion (nothing past the period),
    the smallest pid — name — on ties."""
    app, names = ctx.app, ctx.names
    left_out = ctx.soft_mask & ~sum(1 << p for p in order)
    alphas = stale_coefficients(app.graph, ctx.names_of(left_out))
    values = {}
    clock = 0
    for p in order:
        proc = app.graph[names[p]]
        clock += proc.aet
        if proc.is_soft:
            values[p] = 0.0
            if clock <= app.period:
                values[p] = alphas[names[p]] * proc.utility_at(clock)
    if not values:
        return None
    return min(sorted(values), key=lambda p: values[p])


def ftsf(app: Application) -> Optional[FSchedule]:
    """Run the FTSF baseline; ``None`` when unschedulable.

    The returned schedule has the same guarantees as an FTSS schedule
    (hard deadlines hold under up to k faults) but typically much lower
    utility.  The drop loop runs on the application's one
    :class:`~repro.scheduling.compiled.SchedulingContext`: each check
    is one worst-case walk from time 0, and the f-schedule is built
    once, at the end.
    """
    base = nft_schedule(app)
    if base is None:
        return None
    ctx = SchedulingContext.of(app)
    k = app.k
    order = [ctx.pid[name] for name in base.order]
    caps = {p: k if ctx.is_hard[p] else 0 for p in order}
    while True:
        latest = latest_start(
            ((ctx.wcet[p], ctx.need[p], caps[p], ctx.deadline[p])
             for p in order),
            k, True, ctx.period,
        )
        if latest >= 0:
            raw = RawTail(tuple(order), tuple(caps[p] for p in order), latest)
            return ctx.schedule(raw, k, 0, 0, 0, True)
        victim = _cheapest_soft(ctx, order)
        if victim is None:
            return None
        order.remove(victim)
