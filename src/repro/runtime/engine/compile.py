"""Compilation of applications and plans into array-friendly tables.

The batched simulator never touches process names or dataclasses in
its inner loops: :func:`compile_application` assigns every process an
integer id and precomputes per-id arrays (recovery overheads, hard
deadlines, vectorized utility evaluators), and :func:`compile_tree`
lowers a :class:`~repro.quasistatic.tree.QSTree` (or a single
:class:`~repro.scheduling.fschedule.FSchedule`, treated as a one-node
tree exactly like the online scheduler does) into per-node entry-id
arrays and per-position arc tables.

Arc tables preserve the online scheduler's selection rule: arcs
evaluated at one completion are stored sorted by
``(-required_faults, target)``, so taking the *first* match equals
``OnlineScheduler._matching_arc``'s ``min`` over all matches.

Vectorized utility evaluators reproduce the scalar
:meth:`UtilityFunction.value_at` bit for bit: piecewise-constant
functions become ``searchsorted`` lookups into the stored values,
linear decay applies the same float64 arithmetic elementwise, and any
unknown subclass falls back to a scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import RuntimeModelError
from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.scheduling.fschedule import FSchedule
from repro.utility.functions import (
    ConstantUtility,
    LinearUtility,
    StepUtility,
    TabulatedUtility,
    UtilityFunction,
)

#: ``evaluator(times) -> utilities`` over an int64 completion array.
UtilityEvaluator = Callable[[np.ndarray], np.ndarray]

#: One compiled switch arc: (lo, hi, required_faults, target node id).
CompiledArc = Tuple[int, int, int, int]


def utility_steps(
    utility: UtilityFunction,
) -> Optional[Tuple[List[int], List[float]]]:
    """``(breakpoints, values)`` of a piecewise-constant utility.

    ``utility.value_at(t) == values[count of breakpoints < t]`` for
    every integer clock ``t``: the ``t > step`` rule of
    :class:`StepUtility` as is, the ``t >= sample`` rule of
    :class:`TabulatedUtility` with each sample lowered by one, no
    utility as the constant 0.  ``None`` for utilities that are not
    piecewise constant.
    """
    if utility is None:
        return [], [0.0]
    if isinstance(utility, StepUtility):
        steps = utility.steps
        return [t for t, _ in steps], [utility.initial] + [v for _, v in steps]
    if isinstance(utility, ConstantUtility):
        if utility.cutoff is None:
            return [], [utility.value]
        return [utility.cutoff], [utility.value, 0.0]
    if isinstance(utility, TabulatedUtility):
        samples = utility.samples
        return (
            [t - 1 for t, _ in samples],
            [samples[0][1]] + [v for _, v in samples],
        )
    return None


def utility_evaluator(utility: UtilityFunction) -> UtilityEvaluator:
    """A vectorized, bit-identical form of ``utility.value_at``."""
    steps = utility_steps(utility)
    if steps is not None:
        bounds = np.asarray(steps[0], dtype=np.int64)
        table = np.asarray(steps[1], dtype=np.float64)
        return lambda times: table[np.searchsorted(bounds, times)]
    if isinstance(utility, LinearUtility):
        u0, slope = utility.u0, utility.slope

        def linear(times: np.ndarray) -> np.ndarray:
            return np.maximum(0.0, u0 - slope * times.astype(np.float64))

        return linear

    def generic(times: np.ndarray) -> np.ndarray:  # unknown subclass
        return np.array(
            [utility.value_at(int(t)) for t in times], dtype=np.float64
        )

    return generic


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
    utilities: Tuple[UtilityEvaluator, ...]

    @property
    def n_processes(self) -> int:
        return len(self.names)

    @property
    def period(self) -> int:
        return self.app.period


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
        utilities=tuple(utility_evaluator(p.utility) for p in processes),
    )


@dataclass(frozen=True)
class CompiledNode:
    """One tree node: ordered entry ids plus per-position arc tables.

    Besides the per-position constants, two per-segment tables feed
    the segment-stepped simulator core: ``entry_mu`` hoists the
    recovery-overhead gather (closed-form segment advancement adds
    ``faults * entry_mu`` per position, so the per-id lookup happens
    once at compile time), and ``arc_positions`` is a sorted index of
    arc-bearing positions so a whole segment's arc evaluation is one
    ``searchsorted`` range instead of a scan over every position.
    """

    node_id: int
    entry_ids: np.ndarray            # (L,) process ids in schedule order
    entry_set: frozenset             # same ids, for overlap checks
    arcs_at: Tuple[Tuple[CompiledArc, ...], ...]  # arcs per position
    entry_caps: np.ndarray           # (L,) re-execution allotments
    entry_mu: np.ndarray             # (L,) recovery overhead per position
    arc_positions: np.ndarray        # sorted positions with arcs
    schedule: FSchedule = field(repr=False, compare=False)

    @property
    def n_entries(self) -> int:
        return len(self.entry_ids)

    @property
    def has_arcs(self) -> bool:
        return any(self.arcs_at)


@dataclass(frozen=True)
class CompiledTree:
    """A lowered quasi-static tree (or single static schedule)."""

    root_id: int
    nodes: Dict[int, CompiledNode]
    scheduled_ids: frozenset         # ids appearing in any node

    def __len__(self) -> int:
        return len(self.nodes)


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
    scheduled: set = set()
    for node in tree:
        entry_ids = np.array(
            [capp.index[e.name] for e in node.schedule.entries],
            dtype=np.int64,
        )
        scheduled.update(int(i) for i in entry_ids)
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
            entry_set=frozenset(int(i) for i in entry_ids),
            arcs_at=tuple(arcs_at),
            entry_caps=np.array(
                [e.reexecutions for e in node.schedule.entries],
                dtype=np.int64,
            ),
            entry_mu=capp.mu[entry_ids],
            arc_positions=np.flatnonzero(
                np.array([bool(a) for a in arcs_at], dtype=bool)
            ).astype(np.int64),
            schedule=node.schedule,
        )
    return CompiledTree(
        root_id=tree.root_id,
        nodes=nodes,
        scheduled_ids=frozenset(scheduled),
    )
