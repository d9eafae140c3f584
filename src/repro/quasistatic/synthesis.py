"""The fast FTQS synthesis engine: the tree builder behind ``ftqs``.

:func:`repro.quasistatic.ftqs.ftqs_reference` remains the *behavioral
oracle* of tree construction — deliberately simple, one full FTSS run
per candidate, interval partitioning evaluated point by point.  This
module rebuilds that hot path for paper-scale sweeps while producing
**byte-identical trees** (``tests/test_synthesis_differential.py``
asserts node, arc, interval and schedule equality over a randomized
corpus):

* **Tails in the C core** — the application's one
  :class:`~repro.scheduling.compiled.SchedulingContext`, shared with
  root admission and the kernel engine, holds its integer tables
  (pid-indexed lists, bitmask sets), lowered once for the C core, and
  every tail, under every FTSS config, is one ``rk_ftss`` call through
  :func:`~repro.scheduling.ftss.ftss_compiled` — never through
  ``ftss``.  A tail stays raw (a
  :class:`~repro.scheduling.compiled.RawTail`: pids, caps and its
  latest schedulable start t_ic, which ``rk_ftss`` reports from its
  final schedulability check), memoized per ``(budget, start,
  completed mask, dropped mask)``; the engine builds, and so
  validates, an :class:`~repro.scheduling.fschedule.FSchedule` only
  for a candidate it admits to the tree.

* **Interval partitioning in the C core** — each candidate is one
  ``rk_partition`` call
  (:meth:`~repro.runtime.engine.kernel.design.DesignCore.partition`),
  :func:`~repro.quasistatic.intervals.partition` clamped at the
  tail's t_ic (worst-case completions are ``start + const``, so no
  bisection): both tails' expected-utility profiles, their critical
  points and the gain scan, with every float bit-identical.  Where the
  C path cannot run — no usable core, or a profile term that is not
  piecewise constant — the engine builds the tail's f-schedule and
  runs that oracle, with the reason counted (see
  :mod:`repro.runtime.engine.kernel.design`).  Schedule similarity is
  maintained incrementally (a per-node running maximum updated on
  insertion, against each node's order and process set taken once)
  instead of O(tree) per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.quasistatic.ftqs import DEFAULT_FTQS_CONFIG, FTQSConfig
from repro.quasistatic.intervals import partition
from repro.quasistatic.similarity import Shape, shape, shape_similarity
from repro.quasistatic.tree import QSNode, QSTree, SwitchArc
from repro.scheduling.compiled import RawTail, SchedulingContext
from repro.scheduling.feasibility import TopNeeds
from repro.scheduling.fschedule import FSchedule
from repro.scheduling.ftss import ftss_compiled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine.kernel.design import Side


@dataclass
class SynthesisStats:
    """Counters of one (or several, merged) fast tree constructions.

    ``memo_hits`` counts candidates whose tail schedule came out of the
    memo instead of a fresh FTSS run.  ``store_hits``/``store_misses``
    count tree-store lookups when the caller synthesizes through a
    :class:`repro.pipeline.store.TreeStore` (a hit skips the build
    entirely, so ``trees_built`` stays untouched); a corrupted or
    error-raising entry counts as a miss.  :meth:`absorb_store` folds
    in the store's backend-level error count and backend name so the
    summary line can report them.
    """

    trees_built: int = 0
    nodes_expanded: int = 0
    candidates_evaluated: int = 0
    memo_hits: int = 0
    tails_scheduled: int = 0
    wall_seconds: float = 0.0
    store_hits: int = 0
    store_misses: int = 0
    store_errors: int = 0
    store_retries: int = 0
    store_degraded: int = 0
    store_backend: str = ""

    def merge(self, other: "SynthesisStats") -> None:
        self.trees_built += other.trees_built
        self.nodes_expanded += other.nodes_expanded
        self.candidates_evaluated += other.candidates_evaluated
        self.memo_hits += other.memo_hits
        self.tails_scheduled += other.tails_scheduled
        self.wall_seconds += other.wall_seconds
        self.store_hits += other.store_hits
        self.store_misses += other.store_misses
        self.store_errors += other.store_errors
        self.store_retries += other.store_retries
        self.store_degraded += other.store_degraded
        self.store_backend = self.store_backend or other.store_backend

    def absorb_store(self, store) -> None:
        """Fold one :class:`~repro.pipeline.store.TreeStore`'s
        backend-level view in: the read-error count (entries that
        raised and degraded to misses) and the backend's name.  Hits
        and misses are *not* taken from the store — the pipeline
        counts them per run, while a shared store's counters span its
        whole lifetime."""
        metrics = store.metrics
        self.store_errors += metrics.errors
        self.store_retries += metrics.retries
        self.store_degraded += metrics.degraded
        self.store_backend = store.backend_name

    def summary_line(self) -> str:
        """One-line summary mirroring the simulate fast-path line."""
        store = ""
        if (
            self.store_hits
            or self.store_misses
            or self.store_errors
            or self.store_backend
        ):
            backend = self.store_backend or "store"
            store = (
                f", store[{backend}] {self.store_hits} hits / "
                f"{self.store_misses} misses / "
                f"{self.store_errors} errors"
            )
            # Resilience counters ride along only when they fired, so
            # the common-case line (and its exact-string tests) is
            # unchanged.
            if self.store_retries:
                store += f" / {self.store_retries} retries"
            if self.store_degraded:
                store += (
                    f" / {self.store_degraded} degraded-to-memory ops"
                )
        return (
            f"synthesis: {self.trees_built} tree(s), "
            f"{self.nodes_expanded} nodes expanded, "
            f"{self.candidates_evaluated} candidates "
            f"({self.memo_hits} memo hits), "
            f"{self.wall_seconds:.2f}s"
            f"{store}"
        )


class _Tail(NamedTuple):
    """A memoized tail: one FTSS run, raw, with the arguments it ran
    with (the prior sets as masks), and the tail as ``rk_partition``
    reads it."""

    raw: RawTail
    budget: int
    start: int
    completed: int
    dropped: int
    side: "Side"


class _NodeData(NamedTuple):
    """What every candidate of one node reads, computed once per
    expansion: cumulative best/worst-case data and prefix masks per
    position, the entries as pids and caps, the prior-dropped mask and
    the schedule as ``rk_partition`` reads it."""

    prefix_best: List[int]
    worst_completion: List[int]
    prefix_sets: List[int]
    pids: Tuple[int, ...]
    caps: Tuple[int, ...]
    dropped: int
    side: "Side"


@dataclass
class _CandidateResult:
    """One admissible candidate, ready for deterministic admission;
    ``schedule`` is its tail's f-schedule when the oracle partition
    needed one."""

    position: int
    assumed_faults: int
    switch_process: str
    tail: _Tail
    intervals: Tuple[Tuple[int, int], ...]
    improvement: float
    schedule: Optional[FSchedule] = None


#: A tail-memo miss (``None`` is a memoized "no tail").
_MISS = object()


class SynthesisEngine:
    """The fast FTQS tree builder (see the module docstring).

    One engine instance holds the tail memo, over the application's
    one context (:meth:`SchedulingContext.of`);
    :func:`~repro.quasistatic.ftqs.ftqs` builds a fresh engine per
    tree.  ``build()`` may be called repeatedly on one engine, and
    later builds reuse every memoized tail.
    """

    def __init__(
        self,
        app,
        config: FTQSConfig = DEFAULT_FTQS_CONFIG,
        stats: Optional[SynthesisStats] = None,
    ):
        self.app = app
        self.config = config
        self.ctx = SchedulingContext.of(app)
        self.stats = stats if stats is not None else SynthesisStats()
        self._tail_memo: Dict[Tuple, Optional[_Tail]] = {}
        self._best_similarity: Dict[int, float] = {}
        self._shapes: Dict[int, Shape] = {}
        self._expected_utility: Dict[int, float] = {}
        self._signatures: Set[Tuple] = set()

    # ------------------------------------------------------------------
    # Memoized tail scheduling
    # ------------------------------------------------------------------
    def _tail(
        self, budget: int, start: int, completed: int, dropped: int
    ) -> Optional[_Tail]:
        """The tail of one FTSS run, or ``None`` when it yields no
        schedulable, non-empty schedule."""
        key = (budget, start, completed, dropped)
        hit = self._tail_memo.get(key, _MISS)
        if hit is not _MISS:
            self.stats.memo_hits += 1
            return hit
        self.stats.tails_scheduled += 1
        ctx = self.ctx
        raw = ftss_compiled(
            ctx, self.config.ftss, budget, start, completed, dropped
        )
        tail = None
        if raw is not None and raw.latest is not None and raw.pids:
            settled = completed
            for p in raw.pids:
                settled |= 1 << p
            # FSchedule.all_dropped: the soft processes the tail leaves
            # out, plus the ones dropped before its start.
            side = ctx.core.side(
                raw.pids, ctx.soft_mask & ~(settled | dropped) | dropped
            )
            tail = _Tail(raw, budget, start, completed, dropped, side)
        self._tail_memo[key] = tail
        return tail

    def _schedule(self, tail: _Tail) -> FSchedule:
        """The validated f-schedule of ``tail``."""
        return self.ctx.schedule(
            tail.raw, tail.budget, tail.start, tail.completed, tail.dropped,
            self.config.ftss.slack_sharing,
        )

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        node: QSNode,
        data: _NodeData,
        position: int,
        switch_process: str,
        faults: int,
        start: int,
        hi: int,
    ) -> Optional[_CandidateResult]:
        """Tail + interval partitioning of one (position, faults)
        candidate, switching at completion times in ``[start, hi]``."""
        config = self.config
        self.stats.candidates_evaluated += 1
        tail = self._tail(
            node.schedule.fault_budget - faults,
            start,
            data.prefix_sets[position],
            data.dropped,
        )
        if tail is None:
            return None
        raw = tail.raw
        rest = position + 1
        if faults == 0 and raw.pids == data.pids[rest:] and (
            raw.caps == data.caps[rest:]
        ):
            return None  # switching would be a no-op
        if config.use_interval_partitioning:
            intervals, improvement, schedule = self._switch_intervals(
                node, data, position, tail, start, hi
            )
        else:
            if start > raw.latest:
                return None
            intervals, improvement = ((start, min(hi, raw.latest)),), 1.0
            schedule = None
        if not (intervals and improvement > 0):
            return None
        return _CandidateResult(
            position=position,
            assumed_faults=faults,
            switch_process=switch_process,
            tail=tail,
            intervals=intervals,
            improvement=improvement,
            schedule=schedule,
        )

    def _switch_intervals(
        self,
        node: QSNode,
        data: _NodeData,
        position: int,
        tail: _Tail,
        start: int,
        hi: int,
    ) -> Tuple[Tuple[Tuple[int, int], ...], float, Optional[FSchedule]]:
        """Interval partitioning of switching from ``node`` after
        ``position`` to ``tail``: ``(intervals, improvement, None)``
        from one ``rk_partition`` call, or, where that cannot run, the
        oracle's on the tail's f-schedule, returned third."""
        stride = self.config.interval_stride
        found = self.ctx.core.partition(
            data.side, position + 1, tail.side, start, hi, tail.raw.latest,
            stride,
        )
        if found is not None:
            return found + (None,)
        schedule = self._schedule(tail)
        oracle = partition(
            self.app, node.schedule, position, schedule, start, hi, stride
        )
        return oracle.intervals, oracle.improvement, schedule

    # ------------------------------------------------------------------
    # Per-node candidate generation
    # ------------------------------------------------------------------
    def _node_data(self, schedule: FSchedule) -> _NodeData:
        """The :class:`_NodeData` of ``schedule``, computed once per
        node instead of O(n) per candidate."""
        ctx = self.ctx
        k = self.app.k
        completed = [ctx.pid[n] for n in schedule.prior_completed]
        best_clock = sum(ctx.bcet[p] for p in completed)
        worst_clock = sum(ctx.wcet[p] for p in completed)
        top = TopNeeds(k)
        done = 0
        for p in completed:
            top.add(ctx.need[p], k)
            done |= 1 << p
        prefix_best: List[int] = []
        worst_completion: List[int] = []
        prefix_sets: List[int] = []
        pids: List[int] = []
        caps: List[int] = []
        for entry in schedule.entries:
            p = ctx.pid[entry.name]
            pids.append(p)
            caps.append(entry.reexecutions)
            prefix_best.append(best_clock)
            best_clock += ctx.bcet[p]
            worst_clock += ctx.wcet[p]
            cap = k if ctx.is_hard[p] else entry.reexecutions
            if cap > 0:
                top.add(ctx.need[p], cap)
            worst_completion.append(
                min(worst_clock + top.demand(), ctx.period)
            )
            done |= 1 << p
            prefix_sets.append(done)
        dropped = ctx.mask(schedule.prior_dropped)
        side = ctx.core.side(pids, ctx.soft_mask & ~(done | dropped) | dropped)
        return _NodeData(
            prefix_best, worst_completion, prefix_sets, tuple(pids),
            tuple(caps), dropped, side,
        )

    def _candidates(self, node: QSNode) -> List[_CandidateResult]:
        ctx = self.ctx
        config = self.config
        schedule = node.schedule
        entries = schedule.entries
        budget = schedule.fault_budget
        if len(entries) < 2:
            return []
        data = self._node_data(schedule)
        results: List[_CandidateResult] = []
        for position in range(len(entries) - 1):
            entry = entries[position]
            fault_range = [0]
            if config.fault_children and budget > 0:
                max_f = min(
                    entry.reexecutions, budget, config.max_fault_variants
                )
                fault_range += list(range(1, max_f + 1))
            hi = data.worst_completion[position]
            p = data.pids[position]
            for faults in fault_range:
                start = (
                    data.prefix_best[position]
                    + (faults + 1) * ctx.bcet[p]
                    + faults * ctx.mu[p]
                )
                if start > hi:
                    continue
                candidate = self._evaluate(
                    node, data, position, entry.name, faults, start, hi
                )
                if candidate is not None:
                    results.append(candidate)
        return results

    # ------------------------------------------------------------------
    # Tree growth
    # ------------------------------------------------------------------
    def _register(self, node: QSNode) -> None:
        """Incremental similarity bookkeeping on node insertion.

        Takes the node's :func:`~repro.quasistatic.similarity.shape`
        once and updates the running per-node maxima on both sides, so
        a later ``similarity_to_tree`` query is a dict lookup; max over
        the same float set as the reference's full scan, hence
        identical.
        """
        mine = shape(node.schedule)
        best = 0.0
        for other_id, theirs in self._shapes.items():
            value = shape_similarity(mine, theirs)
            if value > best:
                best = value
            if value > self._best_similarity[other_id]:
                self._best_similarity[other_id] = value
        self._best_similarity[node.node_id] = best
        self._shapes[node.node_id] = mine

    def _expected(self, node: QSNode) -> float:
        hit = self._expected_utility.get(node.node_id)
        if hit is None:
            hit = node.schedule.expected_utility()
            self._expected_utility[node.node_id] = hit
        return hit

    def _pick_expansion(self, tree: QSTree, layer: int) -> Optional[QSNode]:
        candidates = [
            n for n in tree if n.layer == layer and not n.expanded
        ]
        if not candidates:
            return None

        def key(node: QSNode):
            return (
                -self._best_similarity[node.node_id],
                -self._expected(node),
                node.node_id,
            )

        return min(candidates, key=key)

    def _expand(self, tree: QSTree, node: QSNode, layer: int) -> None:
        node.expanded = True
        self.stats.nodes_expanded += 1
        candidates = self._candidates(node)
        candidates.sort(
            key=lambda c: (-c.improvement, c.position, c.assumed_faults)
        )
        app_k = self.app.k
        for candidate in candidates:
            if len(self._signatures) >= self.config.max_schedules:
                break
            schedule = candidate.schedule
            if schedule is None:
                schedule = self._schedule(candidate.tail)
            child = tree.add_child(
                node.node_id,
                schedule,
                switch_process=candidate.switch_process,
                assumed_faults=candidate.assumed_faults,
                layer=layer,
            )
            self._signatures.add(schedule.signature())
            required = app_k - schedule.fault_budget
            for lo, hi in candidate.intervals:
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
            self._register(child)

    def build(self, root_schedule: FSchedule) -> QSTree:
        """Grow the quasi-static tree Φ — fast twin of
        :func:`repro.quasistatic.ftqs.ftqs_reference`."""
        started = time.perf_counter()
        config = self.config
        self._expected_utility = {}
        self._signatures = {root_schedule.signature()}
        tree = QSTree(root_schedule)
        self._best_similarity = {tree.root_id: 0.0}
        self._shapes = {tree.root_id: shape(root_schedule)}
        try:
            if config.max_schedules == 1 or len(root_schedule) <= 1:
                return tree
            max_layer = len(self.app.graph.process_names)
            self._expand(tree, tree.root, 1)
            layer = 1
            while len(self._signatures) < config.max_schedules:
                candidate = self._pick_expansion(tree, layer)
                if candidate is None:
                    layer += 1
                    if layer > max_layer:
                        break
                    if not any(not n.expanded for n in tree):
                        break
                    continue
                self._expand(tree, candidate, layer + 1)
            tree.prune_unreachable()
            tree.validate()
            return tree
        finally:
            self.stats.trees_built += 1
            self.stats.wall_seconds += time.perf_counter() - started

