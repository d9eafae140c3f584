"""FTQS — fault-tolerant quasi-static scheduling (paper §5.1, Fig. 7)
and the overall scheduling strategy (paper §5, Fig. 6).

FTQS grows the quasi-static tree Φ from the root f-schedule S_root in
layers of sub-schedules:

* ``CreateSubschedules(S, k, layer)`` re-plans the tail of schedule S
  after each of its processes P_i, assuming P_i completes at its
  best-possible time (all history at BCET) — and, for processes with
  re-execution allotments, also assuming 1..f faults already hit P_i
  (these fault-conditioned children reserve slack for only ``k - f``
  further faults, realizing the fault groups of Fig. 5);
* the expansion order is driven by schedule similarity
  (``FindMostSimilarSubschedule``): descending through nodes similar
  to what the tree already holds is where genuinely different
  schedules are found;
* growth stops when the number of *different* schedules reaches M;
* finally, interval partitioning computes, for every generated child,
  the completion-time window in which switching to it is beneficial
  and safe, and children that never win are pruned.

The produced tree is what the online scheduler
(:class:`repro.runtime.OnlineScheduler`) executes with negligible
runtime overhead: at each process completion it scans the current
node's arcs for that process — a handful of integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import UnschedulableError
from repro.model.application import Application
from repro.quasistatic.intervals import (
    PartitionResult,
    latest_safe_start,
    partition,
)
from repro.quasistatic.similarity import find_most_similar_unexpanded
from repro.quasistatic.tree import QSNode, QSTree, SwitchArc
from repro.scheduling.fschedule import FSchedule, shared_recovery_demand
from repro.scheduling.ftss import FTSSConfig, ftss, ftss_reference


@dataclass(frozen=True)
class FTQSConfig:
    """Tunables of the quasi-static tree construction.

    Attributes
    ----------
    max_schedules:
        M — the bound on *different* schedules in the tree (paper
        Table 1 sweeps this).
    fault_children:
        Generate fault-conditioned sub-schedules (1..f faults in the
        switch process) in addition to the no-fault ones.  Disabling
        them yields a pure completion-time tree (the structure of
        Cortes et al. [3] made fault tolerant), cheaper to build and
        only slightly worse in faulty scenarios.
    max_fault_variants:
        Cap on the number of fault-conditioned children per position
        (1 generates only the single-fault child, etc.); bounds the
        construction cost for large k.
    interval_stride:
        Stride of the uniform grid of switch times that interval
        partitioning evaluates besides every profile's critical points
        (0 = automatic: a 48th of the traced range, at least 1).
    ftss:
        Configuration for the embedded FTSS runs.
    use_interval_partitioning:
        The ``ablation-interval`` switch: when off, each child gets a
        naive arc spanning from its generation assumption to its latest
        safe switch time without comparing utilities.
    """

    max_schedules: int = 16
    fault_children: bool = True
    max_fault_variants: int = 1
    interval_stride: int = 0
    ftss: FTSSConfig = field(default_factory=FTSSConfig)
    use_interval_partitioning: bool = True

    def __post_init__(self) -> None:
        if self.max_schedules < 1:
            raise ValueError("max_schedules must be at least 1")
        if self.max_fault_variants < 0:
            raise ValueError("max_fault_variants must be non-negative")
        if self.interval_stride < 0:
            raise ValueError("interval_stride must be non-negative")


DEFAULT_FTQS_CONFIG = FTQSConfig()


def best_case_completion(
    app: Application, node_schedule: FSchedule, position: int, faults: int
) -> int:
    """Best-possible completion time of the process at ``position``.

    All history (prior completions and the schedule prefix) executes at
    BCET, and the ``faults`` failed attempts of the process itself each
    cost a best-case run plus the recovery overhead (paper §5.1: "the
    best-possible, when all processes scheduled before P_i and P_i
    itself are executed with their best-case execution times").
    """
    graph = app.graph
    clock = sum(graph[n].bcet for n in node_schedule.prior_completed)
    for entry in node_schedule.entries[:position]:
        clock += graph[entry.name].bcet
    proc = graph[node_schedule.entries[position].name]
    mu = app.recovery_overhead(proc.name)
    return clock + (faults + 1) * proc.bcet + faults * mu


def worst_case_completion(
    app: Application, node_schedule: FSchedule, position: int
) -> int:
    """Worst-possible completion time of the process at ``position``.

    All history at WCET plus the full shared recovery demand of the
    application's fault budget over the recoverable history — the
    "worst-case fault scenario (with k faults)" end of the tracing
    range.  Clipped to the period: completions beyond it cannot occur
    in a feasible run.
    """
    graph = app.graph
    clock = sum(graph[n].wcet for n in node_schedule.prior_completed)
    needs: List[Tuple[int, int]] = []
    for name in node_schedule.prior_completed:
        needs.append((app.recovery_need(name), app.k))
    for entry in node_schedule.entries[: position + 1]:
        clock += graph[entry.name].wcet
        cap = entry.reexecutions if graph[entry.name].is_soft else app.k
        if cap > 0:
            needs.append((app.recovery_need(entry.name), cap))
    clock += shared_recovery_demand(needs, app.k)
    return min(clock, app.period)


@dataclass
class _Candidate:
    """A generated sub-schedule awaiting admission to the tree."""

    tail: FSchedule
    switch_process: str
    position: int
    assumed_faults: int
    result: PartitionResult


def _generate_candidates(
    app: Application, node: QSNode, config: FTQSConfig
) -> List[_Candidate]:
    """All scored sub-schedule candidates of ``node``.

    For every position of the node's schedule (and, for processes with
    re-execution allotments, for every assumed fault count up to the
    configured bound), re-plan the tail with FTSS from the best-case
    completion and run interval partitioning against continuing the
    parent.  Candidates that never win (or are unsafe everywhere) are
    discarded here — keeping them would waste the M budget the tree
    size limit exists to protect.
    """
    schedule = node.schedule
    budget = schedule.fault_budget
    candidates: List[_Candidate] = []
    for position, entry in enumerate(schedule.entries):
        if position == len(schedule.entries) - 1:
            continue  # no tail left to re-plan after the last process
        fault_range = [0]
        if config.fault_children and budget > 0:
            max_f = min(entry.reexecutions, budget, config.max_fault_variants)
            fault_range += list(range(1, max_f + 1))
        prefix_names = {e.name for e in schedule.entries[: position + 1]}
        parent_tail_signature = tuple(
            (e.name, e.reexecutions)
            for e in schedule.entries[position + 1 :]
        )
        hi = worst_case_completion(app, schedule, position)
        for faults in fault_range:
            start = best_case_completion(app, schedule, position, faults)
            if start > hi:
                continue
            tail = ftss_reference(
                app,
                fault_budget=budget - faults,
                start_time=start,
                prior_completed=schedule.prior_completed | prefix_names,
                prior_dropped=schedule.prior_dropped,
                config=config.ftss,
            )
            if tail is None or len(tail) == 0:
                continue
            if faults == 0 and tail.signature() == parent_tail_signature:
                continue  # switching would be a no-op
            if config.use_interval_partitioning:
                result = partition(
                    app,
                    schedule,
                    position,
                    tail,
                    start,
                    hi,
                    stride=config.interval_stride,
                )
            else:
                # ablation-interval: switch whenever safe, no utility
                # comparison; a nominal unit improvement keeps the
                # admission order well-defined.
                safe_hi = latest_safe_start(tail, start, hi)
                if safe_hi is None:
                    continue
                result = PartitionResult(
                    intervals=((start, safe_hi),), improvement=1.0
                )
            if not result.beneficial:
                continue
            candidates.append(
                _Candidate(
                    tail=tail,
                    switch_process=entry.name,
                    position=position,
                    assumed_faults=faults,
                    result=result,
                )
            )
    return candidates


def create_subschedules(
    app: Application,
    tree: QSTree,
    node: QSNode,
    layer: int,
    config: FTQSConfig,
) -> List[QSNode]:
    """Generate and admit the sub-schedules of ``node`` (FTQS lines
    2/7).

    Candidates are admitted in decreasing order of their expected
    improvement ("we have to keep only those sub-schedules ... that
    lead to the most significant improvement in terms of the overall
    utility", §5.1) until the tree holds M different schedules.  Arcs
    (the switch conditions) are attached immediately from the
    partitioning result.
    """
    node.expanded = True
    candidates = _generate_candidates(app, node, config)
    candidates.sort(
        key=lambda c: (-c.result.improvement, c.position, c.assumed_faults)
    )
    children: List[QSNode] = []
    for candidate in candidates:
        if tree.different_schedules() >= config.max_schedules:
            break
        child = tree.add_child(
            node.node_id,
            candidate.tail,
            switch_process=candidate.switch_process,
            assumed_faults=candidate.assumed_faults,
            layer=layer,
        )
        required = app.k - candidate.tail.fault_budget
        for lo, hi in candidate.result.intervals:
            tree.add_arc(
                node.node_id,
                SwitchArc(
                    process=candidate.switch_process,
                    lo=lo,
                    hi=hi,
                    required_faults=required,
                    target=child.node_id,
                ),
            )
        children.append(child)
    return children


def interval_partitioning(
    app: Application, tree: QSTree, config: FTQSConfig
) -> None:
    """FTQS line 10, standalone: (re)compute all switch conditions.

    The integrated construction attaches arcs at admission time; this
    pass exists for callers that assemble trees manually (tests, IO
    round-trips) and recomputes every child's condition from scratch.
    """
    for node in tree:
        node.arcs = []
    for child in list(tree):
        if child.is_root:
            continue
        parent = tree.node(child.parent_id)
        position = parent.schedule.position(child.switch_process)
        lo = best_case_completion(
            app, parent.schedule, position, child.assumed_faults
        )
        hi = worst_case_completion(app, parent.schedule, position)
        if lo > hi:
            continue
        required = app.k - child.schedule.fault_budget
        if config.use_interval_partitioning:
            result = partition(
                app,
                parent.schedule,
                position,
                child.schedule,
                lo,
                hi,
                stride=config.interval_stride,
            )
            intervals = list(result.intervals)
        else:
            safe_hi = latest_safe_start(child.schedule, lo, hi)
            intervals = [] if safe_hi is None else [(lo, safe_hi)]
        for interval_lo, interval_hi in intervals:
            tree.add_arc(
                parent.node_id,
                SwitchArc(
                    process=child.switch_process,
                    lo=interval_lo,
                    hi=interval_hi,
                    required_faults=required,
                    target=child.node_id,
                ),
            )


def ftqs(
    app: Application,
    root_schedule: FSchedule,
    config: FTQSConfig = DEFAULT_FTQS_CONFIG,
    *,
    stats=None,
) -> QSTree:
    """Build the fault-tolerant quasi-static tree Φ (paper Fig. 7).

    Runs the fast engine of :mod:`repro.quasistatic.synthesis`, whose
    trees are identical to :func:`ftqs_reference`'s (asserted by
    ``tests/test_synthesis_differential.py``).  ``stats`` may be a
    :class:`~repro.quasistatic.synthesis.SynthesisStats` that
    accumulates construction counters across calls.
    """
    from repro.quasistatic.synthesis import SynthesisEngine

    return SynthesisEngine(app, config, stats=stats).build(root_schedule)


def ftqs_reference(
    app: Application,
    root_schedule: FSchedule,
    config: FTQSConfig = DEFAULT_FTQS_CONFIG,
) -> QSTree:
    """The behavioral oracle of tree construction (paper Fig. 7,
    followed literally)."""
    tree = QSTree(root_schedule)
    if config.max_schedules == 1 or len(root_schedule) <= 1:
        return tree

    max_layer = len(app.graph.process_names)
    create_subschedules(app, tree, tree.root, 1, config)
    layer = 1
    while tree.different_schedules() < config.max_schedules:
        candidate = find_most_similar_unexpanded(tree, layer)
        if candidate is None:
            layer += 1
            if layer > max_layer:
                break
            if not any(not n.expanded for n in tree):
                break
            continue
        create_subschedules(app, tree, candidate, layer + 1, config)
    tree.prune_unreachable()
    tree.validate()
    return tree


@dataclass
class SchedulingStrategyResult:
    """Output of the overall scheduling strategy (paper Fig. 6).

    ``stats`` carries the fast engine's construction counters when the
    caller supplied a collector (``None`` otherwise).
    """

    app: Application
    root_schedule: FSchedule
    tree: QSTree
    stats: Optional[object] = None

    @property
    def schedulable(self) -> bool:
        return True  # construction raises when unschedulable

    def summary(self) -> str:
        return (
            f"root={len(self.root_schedule)} processes, tree nodes="
            f"{len(self.tree)}, distinct schedules="
            f"{self.tree.different_schedules()}"
        )


def schedule_application(
    app: Application,
    max_schedules: int = 16,
    config: Optional[FTQSConfig] = None,
    *,
    stats=None,
) -> SchedulingStrategyResult:
    """The paper's ``SchedulingStrategy`` (Fig. 6).

    Generates the root f-schedule with FTSS; raises
    :class:`~repro.errors.UnschedulableError` when no fault-tolerant
    schedule exists; otherwise grows the quasi-static tree with FTQS
    (``stats`` goes to :func:`ftqs`).
    """
    if config is None:
        config = FTQSConfig(max_schedules=max_schedules)
    root = ftss(app, config=config.ftss)
    if root is None:
        raise UnschedulableError(
            "no f-schedule meets all hard deadlines under the fault "
            "hypothesis"
        )
    tree = ftqs(app, root, config, stats=stats)
    return SchedulingStrategyResult(
        app=app, root_schedule=root, tree=tree, stats=stats
    )
