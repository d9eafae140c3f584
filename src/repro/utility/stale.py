"""Stale-value coefficients (paper §2.1).

When a soft process is dropped, its consumers fall back to values from
a previous execution cycle ("stale" values).  The paper models the
resulting service degradation with a coefficient α_i multiplying the
utility function:

* α_i = 0 when P_i itself is dropped (its utility is lost entirely);
* otherwise α_i = (1 + Σ α_j over direct predecessors j) / (1 + |DP(P_i)|),

so a process whose inputs are all fresh has α = 1, and staleness decays
through the graph in inverse proportion to the number of inputs.  The
worked example of the paper: P3 with predecessors P1 (dropped) and P2
(completed) gets α_3 = (1 + 0 + 1) / (1 + 2) = 2/3, and its sole
successor P4 gets α_4 = (1 + 2/3) / (1 + 1) = 5/6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Set

from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.graph import ProcessGraph


def stale_coefficients(
    graph: ProcessGraph,
    dropped: Iterable[str],
) -> Dict[str, float]:
    """Compute α for every process given the set of dropped processes.

    ``dropped`` may contain hard process names only in pathological
    inputs; hard processes are never dropped by the schedulers, and
    passing one here raises :class:`~repro.errors.ModelError` to catch
    such bugs early.

    Returns a map from process name to α ∈ [0, 1].  Hard processes are
    assigned α = 1 when executed (they carry no utility, but their
    freshness still propagates to soft successors reading their
    outputs).
    """
    dropped_set: Set[str] = set(dropped)
    for name in dropped_set:
        if name not in graph:
            raise ModelError(f"dropped process {name!r} not in graph")
        if graph[name].is_hard:
            raise ModelError(f"hard process {name!r} cannot be dropped")

    alphas: Dict[str, float] = {}
    for name in graph.topological_order():
        if name in dropped_set:
            alphas[name] = 0.0
            continue
        preds = graph.predecessors(name)
        if not preds:
            alphas[name] = 1.0
            continue
        # Left to right, as Python 3.11's sum() and the C core add:
        # 3.12's sum() of floats is compensated and rounds differently.
        total = 0.0
        for pred in preds:
            total += alphas[pred]
        alphas[name] = (1.0 + total) / (1.0 + len(preds))
    return alphas


def stale_coefficient(
    graph: ProcessGraph,
    name: str,
    dropped: Iterable[str],
) -> float:
    """α for a single process (convenience wrapper)."""
    return stale_coefficients(graph, dropped)[name]


def degraded_utility(
    graph: ProcessGraph,
    completion_times: Mapping[str, int],
    dropped: Iterable[str],
) -> float:
    """Overall utility U = Σ α_i × U_i(c_i) over executed soft processes.

    ``completion_times`` maps every *executed* process to its completion
    time; dropped processes must not appear in it.  This is the
    quantity the paper's experiments average over execution scenarios.
    """
    dropped_set = set(dropped)
    overlap = dropped_set & set(completion_times)
    if overlap:
        raise ModelError(
            f"processes both dropped and completed: {sorted(overlap)}"
        )
    executed_soft = [
        p for p in graph.soft_processes() if p.name not in dropped_set
    ]
    missing = [p.name for p in executed_soft if p.name not in completion_times]
    if missing:
        raise ModelError(
            f"executed soft processes lack completion times: {missing}"
        )
    alphas = stale_coefficients(graph, dropped_set)
    return sum(
        alphas[p.name] * p.utility_at(completion_times[p.name])
        for p in executed_soft
    )
