"""Directed acyclic process graphs (paper §2).

An application is modelled as a set of directed, acyclic, *polar*
process graphs.  A graph is polar when it has a single source and a
single sink; the paper uses polarity only as a modelling convention, so
:class:`ProcessGraph` checks acyclicity always and polarity only on
request (:meth:`ProcessGraph.is_polar`, :meth:`ProcessGraph.polarized`).

The class keeps its own adjacency maps (plain dicts of lists, in edge
insertion order, which fixes each process's predecessor order) and
needs no graph library: the workload generators hand it plain edge
lists (:mod:`repro.workloads.random_dags`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.model.process import Process


class ProcessGraph:
    """A DAG of :class:`Process` nodes with O(1) adjacency lookups."""

    def __init__(
        self,
        processes: Iterable[Process],
        edges: Iterable[Tuple[str, str]] = (),
        name: str = "G",
        period: Optional[int] = None,
    ):
        self.name = name
        self.period = period
        self._procs: Dict[str, Process] = {}
        for proc in processes:
            if proc.name in self._procs:
                raise GraphError(f"duplicate process name {proc.name!r}")
            self._procs[proc.name] = proc
        self._succ: Dict[str, List[str]] = {n: [] for n in self._procs}
        self._pred: Dict[str, List[str]] = {n: [] for n in self._procs}
        for src, dst in edges:
            self._add_edge(src, dst)
        self._check_acyclic()

    # ------------------------------------------------------------------
    # Construction: a graph is fixed once built
    # ------------------------------------------------------------------
    def _add_edge(self, src: str, dst: str) -> None:
        """Add the dependency ``src -> dst`` (output of src feeds dst)."""
        if src not in self._procs:
            raise GraphError(f"unknown process {src!r}")
        if dst not in self._procs:
            raise GraphError(f"unknown process {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        if dst in self._succ[src]:
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    def _check_acyclic(self) -> None:
        order = self._topological_order_or_none()
        if order is None:
            raise GraphError(f"graph {self.name!r} contains a cycle")
        self._topo_cache = order

    def _topological_order_or_none(self) -> Optional[List[str]]:
        in_deg = {n: len(self._pred[n]) for n in self._procs}
        stack = sorted(n for n, d in in_deg.items() if d == 0)
        order: List[str] = []
        while stack:
            node = stack.pop()
            order.append(node)
            for succ in self._succ[node]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    stack.append(succ)
        if len(order) != len(self._procs):
            return None
        return order

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._procs)

    def __contains__(self, name: str) -> bool:
        return name in self._procs

    def __iter__(self) -> Iterator[Process]:
        return iter(self._procs.values())

    def __getitem__(self, name: str) -> Process:
        try:
            return self._procs[name]
        except KeyError:
            raise GraphError(f"unknown process {name!r}") from None

    @property
    def processes(self) -> List[Process]:
        """All processes, in insertion order."""
        return list(self._procs.values())

    @property
    def process_names(self) -> List[str]:
        return list(self._procs)

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return [(s, d) for s in self._procs for d in self._succ[s]]

    def successors(self, name: str) -> List[str]:
        """Direct successors (consumers of ``name``'s outputs)."""
        if name not in self._succ:
            raise GraphError(f"unknown process {name!r}")
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        """Direct predecessors DP(Pi) (paper §2.1 stale-value formula)."""
        if name not in self._pred:
            raise GraphError(f"unknown process {name!r}")
        return list(self._pred[name])

    def sources(self) -> List[str]:
        """Processes with no predecessors (ready at activation)."""
        return [n for n in self._procs if not self._pred[n]]

    def sinks(self) -> List[str]:
        """Processes with no successors."""
        return [n for n in self._procs if not self._succ[n]]

    def topological_order(self) -> List[str]:
        """A deterministic topological order of the process names."""
        return list(self._topo_cache)

    def hard_processes(self) -> List[Process]:
        """The set H of hard processes."""
        return [p for p in self._procs.values() if p.is_hard]

    def soft_processes(self) -> List[Process]:
        """The set S of soft processes."""
        return [p for p in self._procs.values() if p.is_soft]

    def ancestors(self, name: str) -> Set[str]:
        """All transitive predecessors of ``name``."""
        seen: Set[str] = set()
        stack = list(self._pred[name])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self._pred[node])
        return seen

    def descendants(self, name: str) -> Set[str]:
        """All transitive successors of ``name``."""
        seen: Set[str] = set()
        stack = list(self._succ[name])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self._succ[node])
        return seen

    def is_polar(self) -> bool:
        """True when the graph has exactly one source and one sink."""
        return len(self.sources()) == 1 and len(self.sinks()) == 1

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def polarized(
        self,
        source_name: str = "__source__",
        sink_name: str = "__sink__",
        epsilon: int = 1,
    ) -> "ProcessGraph":
        """Return a polar copy with dummy source/sink processes added.

        The dummy processes are hard with negligible execution time
        ``epsilon`` and a deadline equal to the period (or a very large
        bound when no period is set); they model the activation and
        termination points of the graph, as in the paper's polar-graph
        convention.
        """
        from repro.model.process import hard_process

        if source_name in self._procs or sink_name in self._procs:
            raise GraphError("dummy node name collides with a process")
        big = self.period if self.period is not None else 2**31
        dummies = [
            hard_process(source_name, epsilon, epsilon, big),
            hard_process(sink_name, epsilon, epsilon, big),
        ]
        procs = dummies[:1] + self.processes + dummies[1:]
        edges = self.edges
        edges += [(source_name, n) for n in self.sources()]
        edges += [(n, sink_name) for n in self.sinks()]
        return ProcessGraph(procs, edges, name=self.name, period=self.period)

    def subgraph(self, names: Sequence[str]) -> "ProcessGraph":
        """Induced subgraph on ``names`` (edge set restricted)."""
        keep = set(names)
        unknown = keep - set(self._procs)
        if unknown:
            raise GraphError(f"unknown processes {sorted(unknown)}")
        procs = [self._procs[n] for n in self._procs if n in keep]
        edges = [(s, d) for s, d in self.edges if s in keep and d in keep]
        return ProcessGraph(procs, edges, name=self.name, period=self.period)

    def relabelled(self, mapping: Dict[str, str]) -> "ProcessGraph":
        """Copy with process names rewritten through ``mapping``.

        Used by hyper-graph construction to disambiguate process
        activations from different periods (e.g. ``P1`` -> ``P1#0``).
        """
        from dataclasses import replace

        procs = []
        for proc in self._procs.values():
            new_name = mapping.get(proc.name, proc.name)
            procs.append(replace(proc, name=new_name))
        edges = [
            (mapping.get(s, s), mapping.get(d, d)) for s, d in self.edges
        ]
        return ProcessGraph(procs, edges, name=self.name, period=self.period)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessGraph({self.name!r}, |V|={len(self)}, "
            f"|E|={len(self.edges)}, T={self.period})"
        )
