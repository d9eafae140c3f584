"""Soft-process priority (the MU function, paper §5.2 line 11).

The paper ranks ready soft processes with the MU priority function of
Cortes et al. [3], which is not reproduced in the paper itself.  We
implement MU as *expected utility density with successor lookahead*:

    MU(P_i) = (α_i · U_i(now + AET_i)
               + w · Σ_{soft succ j} α_j · U_j(now + AET_i + AET_j))
              / AET_i

The first term is what scheduling P_i next is expected to earn; the
second discounts the utility its soft successors could earn right
after it (weight ``w``, default 0.5); dividing by AET_i prefers
processes that earn utility quickly.  α values use the current dropped
set, so a process whose inputs went stale is ranked accordingly.

Any monotone single-process estimator fits the FTSS framework; this
one reproduces the qualitative behaviour the paper relies on (serve
high, fast-decaying utility first — e.g. preferring P3 over P2 in
Fig. 4's schedule S2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.model.application import Application
from repro.utility.stale import stale_coefficients

#: Default weight of the successor lookahead term.
SUCCESSOR_WEIGHT = 0.5


def soft_priorities(
    app: Application,
    ready_soft: Iterable[str],
    now: int,
    dropped: Iterable[str] = (),
    successor_weight: float = SUCCESSOR_WEIGHT,
    alphas: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """MU priorities for the given ready soft processes at time ``now``.

    Parameters
    ----------
    app:
        The application.
    ready_soft:
        Names of ready soft processes to rank.
    now:
        Current schedule time (end of the scheduled prefix, in the
        average case).
    dropped:
        Soft processes already dropped (affects stale coefficients).
    successor_weight:
        Weight ``w`` of the lookahead term; 0 disables lookahead.
    alphas:
        Precomputed stale coefficients for ``dropped`` (performance
        hook for callers that rank repeatedly under one dropped set).
    """
    graph = app.graph
    if alphas is None:
        alphas = stale_coefficients(graph, dropped)
    priorities: Dict[str, float] = {}
    for name in ready_soft:
        proc = graph[name]
        if not proc.is_soft:
            raise ValueError(f"{name!r} is not a soft process")
        completion = now + proc.aet
        own = alphas[name] * proc.utility_at(min(completion, app.period))
        if completion > app.period:
            own = 0.0
        lookahead = 0.0
        for succ in graph.successors(name):
            succ_proc = graph[succ]
            if not succ_proc.is_soft or succ in dropped:
                continue
            succ_completion = completion + succ_proc.aet
            if succ_completion > app.period:
                continue
            lookahead += alphas[succ] * succ_proc.utility_at(succ_completion)
        priorities[name] = (own + successor_weight * lookahead) / max(
            proc.aet, 1
        )
    return priorities


def best_soft(
    priorities: Mapping[str, float],
) -> Optional[str]:
    """Highest-priority soft process; deterministic tie-break by name."""
    if not priorities:
        return None
    return max(sorted(priorities), key=lambda n: priorities[n])


def earliest_deadline_hard(
    app: Application, ready_hard: Iterable[str]
) -> Optional[str]:
    """EDF choice among ready hard processes (paper: GetBestProcess
    falls back to the hard process with the earliest deadline)."""
    candidates = sorted(ready_hard)
    if not candidates:
        return None
    return min(candidates, key=lambda n: (app.process(n).deadline, n))
