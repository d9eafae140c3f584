"""The application model: process graph(s) + period + fault hypothesis.

An :class:`Application` bundles one merged :class:`ProcessGraph` with
the global scheduling parameters of the paper's problem formulation
(§4): the period ``T`` on the single computation node, the maximum
number ``k`` of transient faults per operation cycle, and the recovery
overhead ``µ``.  Multi-rate applications (several graphs with different
periods) are first merged into one hyper-period graph by
:func:`repro.model.hypergraph.merge_hyperperiod` and then wrapped in an
:class:`Application`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import ModelError, TimingError
from repro.model.graph import ProcessGraph
from repro.model.process import Process, is_integer


class Application:
    """A single-node mixed hard/soft application (paper §4).

    Parameters
    ----------
    graph:
        The (merged) process graph.
    period:
        Operation-cycle period ``T``; every process must complete (or be
        dropped) by ``T`` in every scenario.
    k:
        Maximum number of transient faults per cycle.
    mu:
        Default recovery overhead µ, applied to processes without a
        per-process override.

    ``period``, ``k`` and ``mu`` must be integers (NumPy's included); a
    float or a bool raises, like a process's timings do.  An
    application is immutable: assigning an attribute raises
    :class:`AttributeError`, so what is derived from it once — its
    :class:`~repro.scheduling.compiled.SchedulingContext`, which
    :meth:`~repro.scheduling.compiled.SchedulingContext.of` keeps in
    the private ``_context`` slot (left out of pickles) — stays valid.
    """

    def __init__(self, graph: ProcessGraph, period: int, k: int, mu: int):
        for label, value, error in (
            ("period", period, TimingError),
            ("fault budget k", k, ModelError),
            ("recovery overhead", mu, TimingError),
        ):
            if not is_integer(value):
                raise error(f"{label} must be an integer, got {value!r}")
        if period <= 0:
            raise TimingError(f"period must be positive, got {period}")
        if k < 0:
            raise ModelError(f"fault budget k must be non-negative, got {k}")
        if mu < 0:
            raise TimingError(f"recovery overhead must be non-negative, got {mu}")
        if len(graph) == 0:
            raise ModelError("application graph has no processes")
        for proc in graph:
            if proc.is_hard and proc.deadline > period:
                raise TimingError(
                    f"{proc.name}: deadline {proc.deadline} exceeds period "
                    f"{period}"
                )
        vars(self).update(
            graph=graph, period=int(period), k=int(k), mu=int(mu),
            _context=None,
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Application is immutable (setting {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Application is immutable (deleting {name!r})")

    def __getstate__(self) -> Dict:
        return {**vars(self), "_context": None}

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.graph)

    def process(self, name: str) -> Process:
        return self.graph[name]

    @property
    def processes(self) -> List[Process]:
        return self.graph.processes

    @property
    def hard(self) -> List[Process]:
        """The set H of hard processes."""
        return self.graph.hard_processes()

    @property
    def soft(self) -> List[Process]:
        """The set S of soft processes."""
        return self.graph.soft_processes()

    def recovery_overhead(self, name: str) -> int:
        """Effective µ for a process (per-process override or global)."""
        proc = self.graph[name]
        if proc.recovery_overhead is not None:
            return proc.recovery_overhead
        return self.mu

    def recovery_need(self, name: str) -> int:
        """Worst-case cost of one recovery of ``name``: WCET + µ.

        This is the unit the shared-slack analysis multiplies by the
        fault count (paper §3: slack of ``(tiw + µ) × f``).
        """
        proc = self.graph[name]
        return proc.wcet + self.recovery_overhead(name)

    def max_utility(self) -> float:
        """Sum of the suprema of all soft utility functions.

        An upper bound on the utility of any scenario; used to
        normalize utilities across applications in the evaluation
        harness.
        """
        return sum(p.utility.max_value() for p in self.soft)

    def utility_horizon(self) -> int:
        """Latest time any utility function still changes."""
        horizons = [p.utility.horizon() for p in self.soft]
        return max(horizons) if horizons else 0

    def worst_case_load(self) -> int:
        """Sum of all WCETs plus the worst shared recovery demand.

        A quick feasibility indicator: if this exceeds the period, the
        full process set cannot complete in the worst fault scenario
        and soft processes will have to be dropped.
        """
        total = sum(p.wcet for p in self.processes)
        if self.k > 0 and self.processes:
            total += self.k * max(self.recovery_need(p.name) for p in self.processes)
        return total

    def validate(self) -> None:
        """Run the full consistency check suite; raises on violation."""
        from repro.model.validation import validate_application

        validate_application(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_hard = len(self.hard)
        n_soft = len(self.soft)
        return (
            f"Application(|V|={len(self)}, hard={n_hard}, soft={n_soft}, "
            f"T={self.period}, k={self.k}, mu={self.mu})"
        )


def application_from_graphs(
    graphs: Iterable[ProcessGraph],
    k: int,
    mu: int,
    periods: Optional[Dict[str, int]] = None,
) -> Application:
    """Build an application from one or more (possibly multi-rate) graphs.

    Graphs whose ``period`` attribute (or ``periods[name]`` entry)
    differ are merged over the hyper-period (LCM of the periods, paper
    §2); a single graph is wrapped directly.
    """
    from repro.model.hypergraph import merge_hyperperiod

    graph_list = list(graphs)
    if not graph_list:
        raise ModelError("need at least one process graph")
    resolved: List[ProcessGraph] = []
    for graph in graph_list:
        period = graph.period
        if periods and graph.name in periods:
            period = periods[graph.name]
        if period is None:
            raise TimingError(f"graph {graph.name!r} has no period")
        if graph.period != period:
            graph = ProcessGraph(
                graph.processes, graph.edges, name=graph.name, period=period
            )
        resolved.append(graph)
    if len(resolved) == 1:
        merged = resolved[0]
        hyper = merged.period
    else:
        merged, hyper = merge_hyperperiod(resolved)
    return Application(merged, period=hyper, k=k, mu=mu)
