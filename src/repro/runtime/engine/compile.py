"""Compilation of applications and plans into array-friendly tables.

The kernel's lowering never touches process names or dataclasses per
scenario: :func:`compile_application` assigns every process an integer
id and precomputes per-id arrays (recovery overheads, hard deadlines),
and :func:`compile_tree` lowers a
:class:`~repro.quasistatic.tree.QSTree` (or a single
:class:`~repro.scheduling.fschedule.FSchedule`, treated as a one-node
tree exactly like the online scheduler does) into per-node entry-id
arrays and per-position arc tables.

Arc tables preserve the online scheduler's selection rule: arcs
evaluated at one completion are stored sorted by
``(-required_faults, target)``, so taking the *first* match equals
``OnlineScheduler._matching_arc``'s ``min`` over all matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import RuntimeModelError
from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.scheduling.fschedule import FSchedule

#: One compiled switch arc: (lo, hi, required_faults, target node id).
CompiledArc = Tuple[int, int, int, int]


@dataclass(frozen=True)
class CompiledApplication:
    """Integer-indexed view of an :class:`Application`."""

    app: Application
    names: Tuple[str, ...]
    index: Dict[str, int]
    mu: np.ndarray            # (n,) recovery overhead per process
    is_hard: np.ndarray       # (n,) bool
    deadline: np.ndarray      # (n,) hard deadlines (period for soft)
    hard_ids: np.ndarray      # ids of hard processes
    soft_ids: np.ndarray      # ids of soft processes

    @property
    def n_processes(self) -> int:
        return len(self.names)


def compile_application(app: Application) -> CompiledApplication:
    """Precompute the per-process arrays the simulator indexes by id."""
    names = tuple(p.name for p in app.processes)
    index = {name: i for i, name in enumerate(names)}
    processes = app.processes
    mu = np.array(
        [app.recovery_overhead(p.name) for p in processes], dtype=np.int64
    )
    is_hard = np.array([p.is_hard for p in processes], dtype=bool)
    deadline = np.array(
        [p.deadline if p.is_hard else app.period for p in processes],
        dtype=np.int64,
    )
    return CompiledApplication(
        app=app,
        names=names,
        index=index,
        mu=mu,
        is_hard=is_hard,
        deadline=deadline,
        hard_ids=np.flatnonzero(is_hard),
        soft_ids=np.flatnonzero(~is_hard),
    )


@dataclass(frozen=True)
class CompiledNode:
    """One tree node: ordered entry ids plus per-position tables."""

    node_id: int
    entry_ids: np.ndarray            # (L,) process ids in schedule order
    arcs_at: Tuple[Tuple[CompiledArc, ...], ...]  # arcs per position
    entry_caps: np.ndarray           # (L,) re-execution allotments
    entry_mu: np.ndarray             # (L,) recovery overhead per position
    schedule: FSchedule = field(repr=False, compare=False)

    @property
    def n_entries(self) -> int:
        return len(self.entry_ids)


@dataclass(frozen=True)
class CompiledTree:
    """A lowered quasi-static tree (or single static schedule)."""

    root_id: int
    nodes: Dict[int, CompiledNode]


def compile_tree(
    capp: CompiledApplication, plan: Union[QSTree, FSchedule]
) -> CompiledTree:
    """Lower ``plan`` into integer tables over ``capp``'s ids."""
    if isinstance(plan, FSchedule):
        tree = QSTree(plan)
    elif isinstance(plan, QSTree):
        tree = plan
    else:
        raise RuntimeModelError(
            f"plan must be a QSTree or FSchedule, got {type(plan)!r}"
        )
    nodes: Dict[int, CompiledNode] = {}
    for node in tree:
        entry_ids = np.array(
            [capp.index[e.name] for e in node.schedule.entries],
            dtype=np.int64,
        )
        arcs_at: List[Tuple[CompiledArc, ...]] = []
        for position, entry in enumerate(node.schedule.entries):
            matching = sorted(
                (a for a in node.arcs if a.process == entry.name),
                key=lambda a: (-a.required_faults, a.target),
            )
            arcs_at.append(
                tuple(
                    (a.lo, a.hi, a.required_faults, a.target)
                    for a in matching
                )
            )
        nodes[node.node_id] = CompiledNode(
            node_id=node.node_id,
            entry_ids=entry_ids,
            arcs_at=tuple(arcs_at),
            entry_caps=np.array(
                [e.reexecutions for e in node.schedule.entries],
                dtype=np.int64,
            ),
            entry_mu=capp.mu[entry_ids],
            schedule=node.schedule,
        )
    return CompiledTree(root_id=tree.root_id, nodes=nodes)
