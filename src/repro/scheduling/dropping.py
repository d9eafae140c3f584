"""The dropping heuristic of FTSS (paper §5.2, lines 3 and 5-9).

Deciding exactly whether a soft process should be dropped would require
exploring all dropping combinations of the remaining processes; the
paper replaces this with a local comparison: for each candidate soft
process P_i, build two hypothetical schedules of the *unscheduled soft
processes only* — S_i' containing P_i and S_i'' without it (its
consumers then read a stale value) — and drop P_i when
U(S_i') ≤ U(S_i'').

S_i' orders the processes greedily by the MU priority (recomputed
after each pick, since completing one soft process shifts the
completion times of the rest); it does not depend on the candidate, so
it is built once per decision.  S_i'' is S_i' with P_i removed — where
the paper re-orders S_i'' greedily; the two agree on the worked
example of Fig. 8 (S_2' earning 80 vs S_2'' earning 50, so P_2 is
kept).  Both are evaluated with average-case execution times starting
from the current schedule time.

``ForcedDropping`` (lines 5-9) reuses the same computation
(:func:`removal_utilities`): when no ready process leads to a
schedulable solution, the soft ready process whose removal costs the
least utility is dropped.  ``rk_ftss`` in the C core is its clone.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.application import Application
from repro.scheduling.priority import soft_priorities
from repro.utility.stale import stale_coefficients


def greedy_soft_order(
    app: Application,
    candidates: Iterable[str],
    now: int,
    dropped: Iterable[str],
) -> List[str]:
    """Order ``candidates`` greedily by MU priority, honouring precedence.

    Only precedence *among the candidates* matters: every other
    predecessor is either already scheduled or dropped (stale input),
    so it does not block activation.
    """
    graph = app.graph
    remaining: Set[str] = set(candidates)
    dropped_set = set(dropped)
    alphas = stale_coefficients(graph, dropped_set)
    order: List[str] = []
    clock = now
    while remaining:
        ready = [
            n
            for n in remaining
            if not any(p in remaining for p in graph.predecessors(n))
        ]
        if not ready:
            # Candidates form a cycle-free graph, so this cannot happen
            # unless a candidate's predecessor set was mis-specified.
            ready = sorted(remaining)
        priorities = soft_priorities(
            app, ready, clock, dropped_set, alphas=alphas
        )
        pick = max(sorted(ready), key=lambda n: priorities.get(n, 0.0))
        order.append(pick)
        remaining.remove(pick)
        clock += graph[pick].aet
    return order


def hypothetical_utility(
    app: Application,
    soft_order: Sequence[str],
    now: int,
    dropped: Iterable[str],
) -> float:
    """Utility of executing ``soft_order`` back-to-back from ``now``.

    All unscheduled soft processes not in ``soft_order`` are treated as
    dropped; completions beyond the period earn nothing.
    """
    graph = app.graph
    executed = set(soft_order)
    dropped_all = set(dropped)
    for proc in graph.soft_processes():
        if proc.name not in executed and proc.name not in dropped_all:
            dropped_all.add(proc.name)
    alphas = stale_coefficients(graph, dropped_all)
    clock = now
    total = 0.0
    for name in soft_order:
        clock += graph[name].aet
        if clock > app.period:
            continue
        total += alphas[name] * graph[name].utility_at(clock)
    return total


def removal_utilities(
    app: Application,
    candidates: Iterable[str],
    unscheduled_soft: Iterable[str],
    now: int,
    dropped: Iterable[str],
) -> Tuple[float, Dict[str, float]]:
    """U(S') and each candidate's U(S''), both dropping decisions' one
    computation.

    ``unscheduled_soft`` are all not-yet-scheduled, not-yet-dropped
    soft processes, every candidate among them.  S' is their greedy MU
    order; a candidate's S'' is S' without it, with it dropped.
    """
    candidates, pool = list(candidates), list(unscheduled_soft)
    outside = sorted(set(candidates) - set(pool))
    if outside:
        raise ValueError(f"{outside} not among the unscheduled soft set")
    keep_order = greedy_soft_order(app, pool, now, dropped)
    keep_utility = hypothetical_utility(app, keep_order, now, dropped)
    drop_utilities: Dict[str, float] = {}
    for name in candidates:
        rest = [n for n in keep_order if n != name]
        drop_set = set(dropped) | {name}
        drop_utilities[name] = hypothetical_utility(app, rest, now, drop_set)
    return keep_utility, drop_utilities


def determine_dropping(
    app: Application,
    ready: Sequence[str],
    unscheduled_soft: Sequence[str],
    now: int,
    dropped: Iterable[str],
) -> List[str]:
    """FTSS line 3: soft ready processes whose dropping is beneficial,
    U(S') <= U(S'').

    Returns the subset of ``ready`` to drop (possibly empty).  Each
    candidate is evaluated against the current dropped set only, as
    in the paper, which avoids the combinatorial explosion of joint
    dropping decisions.
    """
    soft = [name for name in ready if app.process(name).is_soft]
    if not soft:
        return []
    keep_utility, drop_utilities = removal_utilities(
        app, soft, unscheduled_soft, now, dropped
    )
    return [
        name for name in soft if keep_utility <= drop_utilities[name]
    ]


def forced_dropping_choice(
    app: Application,
    ready_soft: Sequence[str],
    unscheduled_soft: Sequence[str],
    now: int,
    dropped: Iterable[str],
) -> Optional[str]:
    """FTSS lines 5-9: the soft ready process whose dropping hurts the
    overall utility least, U(S') - U(S''); the smallest name on ties.

    Returns ``None`` when there is no soft process to sacrifice.
    """
    if not ready_soft:
        return None
    keep_utility, drop_utilities = removal_utilities(
        app, ready_soft, unscheduled_soft, now, dropped
    )
    losses = {
        name: keep_utility - drop for name, drop in drop_utilities.items()
    }
    return min(sorted(losses), key=lambda n: losses[n])
