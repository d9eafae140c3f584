"""Fast FTQS synthesis engine (the design-time counterpart of PR 1/2).

:mod:`repro.quasistatic.ftqs` remains the *behavioral oracle* of tree
construction — deliberately simple, one full FTSS run per candidate,
interval partitioning evaluated point by point.  This module rebuilds
that hot path for paper-scale sweeps while producing **byte-identical
trees** (``tests/test_synthesis_differential.py`` asserts node, arc,
interval and schedule equality over a randomized corpus, for any job
count):

* **Tails in the C core** — one
  :class:`~repro.scheduling.compiled.SchedulingContext` per build
  holds the application's integer tables (pid-indexed lists, bitmask
  sets), lowered once for the C core, and every tail is one
  ``rk_ftss`` call through
  :func:`~repro.scheduling.ftss.ftss_compiled` — never through
  ``ftss``.  Whole tails are memoized per ``(budget, start, completed
  mask, dropped mask)``.

* **Interval partitioning in the C core** — the safety bound t_ic
  falls out of a closed form (worst-case completions are ``start +
  const``, so feasibility flips at ``min(deadline_i - const_i, period
  - const_last)``; no bisection), and each side's expected-utility
  profile is evaluated at *all* critical points in one
  ``rk_expected`` call, the scalar path's float operations per point,
  so every float is bit-identical.  Where the C path cannot run, the
  oracles run instead (see
  :mod:`repro.runtime.engine.kernel.design`).  Schedule similarity is
  maintained incrementally (a per-node running maximum updated on
  insertion) instead of O(tree) per query.

* **Parallel candidate layer** — the candidates of one FTQS expansion
  are independent; with ``jobs > 1`` they are sharded across a
  persistent :class:`~repro.runtime.engine.parallel.TaskPool` whose
  workers each build a ``jobs=1`` engine once from the pool's
  :class:`~repro.runtime.engine.parallel.WorkerContext`, and merged in
  generation order, so the admitted children (and therefore node ids,
  arcs and the final tree) are identical for any job count.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.quasistatic.ftqs import DEFAULT_FTQS_CONFIG, FTQSConfig
from repro.quasistatic.intervals import PartitionResult, TailProfile, TailTerm
from repro.quasistatic.similarity import schedule_similarity
from repro.quasistatic.tree import QSNode, QSTree, SwitchArc
from repro.scheduling.compiled import SchedulingContext
from repro.scheduling.feasibility import TopNeeds
from repro.scheduling.fschedule import FSchedule
from repro.scheduling.ftss import ftss_compiled, ftss_reference


@dataclass
class SynthesisStats:
    """Counters of one (or several, merged) fast tree constructions.

    ``memo_hits`` counts candidates whose tail schedule came out of the
    memo instead of a fresh FTSS run; with ``jobs > 1`` the workers'
    memos are process-local, so the counters reflect only parent-side
    work.  ``store_hits``/``store_misses`` count tree-store lookups
    when the caller synthesizes through a
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


# ----------------------------------------------------------------------
# Interval partitioning
# ----------------------------------------------------------------------
def fast_latest_safe_start(
    schedule: FSchedule, lo: int, hi: int, ctx: SchedulingContext
) -> Optional[int]:
    """Closed-form :func:`repro.quasistatic.intervals.latest_safe_start`.

    Every worst-case completion of a rebased schedule is ``start +
    const`` with the constant independent of the start time, so
    :func:`~repro.scheduling.feasibility.latest_start` gives the bound
    directly — no bisection needed.  ``ctx`` holds the application's
    tables.
    """
    limit = ctx.latest_start(schedule)
    if limit is None or lo > limit:
        return None  # (a missing hard process is infeasible at any start)
    return min(hi, limit)


@dataclass
class _CandidateResult:
    """One admissible candidate, ready for deterministic admission."""

    position: int
    assumed_faults: int
    switch_process: str
    tail: FSchedule
    intervals: Tuple[Tuple[int, int], ...]
    improvement: float


def _synthesis_worker_eval(engine: "SynthesisEngine", task):
    """Evaluate one (position, faults) candidate in a worker.

    ``engine`` is the worker's ``jobs=1`` engine for the application
    (its :class:`~repro.runtime.engine.parallel.WorkerContext` state).
    Returns a picklable reduction of :class:`_CandidateResult` (the
    tail's entries; the parent rebuilds the schedule from its own
    context) or ``None`` for non-admissible candidates.
    """
    (
        spec,
        position,
        switch_process,
        faults,
        start,
        hi,
        prefix_completed,
        parent_signature,
    ) = task
    schedule = engine._schedule_from_spec(spec)
    candidate = engine._evaluate(
        schedule,
        position,
        switch_process,
        faults,
        start,
        hi,
        prefix_completed,
        parent_signature,
    )
    if candidate is None:
        return None
    return (
        tuple(candidate.tail.entries),
        candidate.intervals,
        candidate.improvement,
    )


class SynthesisEngine:
    """The fast FTQS tree builder (see the module docstring).

    One engine instance holds the compiled tables, memos and (for
    ``jobs > 1``) the persistent worker pool; ``build()`` may be called
    repeatedly — e.g. once per M of a Table 1 sweep — and later builds
    reuse every memoized tail.  Use as a context manager (or call
    :meth:`close`) when ``jobs > 1`` so the pool is released
    deterministically.

    ``pool`` may be a :class:`~repro.runtime.engine.parallel.TaskPool`
    borrowed from a :class:`repro.pipeline.resources.ResourceManager`,
    so one pool spawned once serves every application of an
    experiment sweep; without one the engine spawns its own on first
    use.  Either way the workers receive the (app, config) context
    once each; :meth:`close` terminates only a pool the engine
    spawned.
    """

    def __init__(
        self,
        app,
        config: FTQSConfig = DEFAULT_FTQS_CONFIG,
        jobs: int = 1,
        stats: Optional[SynthesisStats] = None,
        pool=None,
    ):
        self.app = app
        self.config = config
        self.jobs = max(1, int(jobs))
        self.ctx = SchedulingContext(app)
        self.stats = stats if stats is not None else SynthesisStats()
        self._tail_memo: Dict[Tuple, Optional[FSchedule]] = {}
        self._profile_cache: Dict[Tuple, Tuple[TailProfile, object]] = {}
        self._spec_cache: Dict[Tuple, FSchedule] = {}
        self._borrowed_pool = pool
        self._pool = pool
        self._context = None
        self._finalizer = None
        self._best_similarity: Dict[int, float] = {}
        self._expected_utility: Dict[int, float] = {}
        self._signatures: Set[Tuple] = set()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        from repro.runtime.engine.parallel import TaskPool, WorkerContext

        if self._pool is None:
            self._pool = TaskPool(self.jobs)
            self._finalizer = weakref.finalize(
                self, TaskPool.close, self._pool
            )
        if self._context is None:
            self._context = WorkerContext.of(
                SynthesisEngine, self.app, self.config
            )
        return self._pool

    def close(self) -> None:
        """Terminate the candidate worker pool (no-op when jobs == 1
        or when the pool is borrowed from a resource manager)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = self._borrowed_pool
        self._context = None

    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Memoized tail scheduling
    # ------------------------------------------------------------------
    def _tail(
        self,
        fault_budget: int,
        start: int,
        prior_completed: int,
        prior_dropped: int,
    ) -> Optional[FSchedule]:
        key = (fault_budget, start, prior_completed, prior_dropped)
        if key in self._tail_memo:
            self.stats.memo_hits += 1
            return self._tail_memo[key]
        self.stats.tails_scheduled += 1
        if not self.config.ftss.fast_paths:
            # The reference slow probes differ from the fast ones in
            # second-order greedy effects; honour the ablation by
            # delegating (memoization still applies).
            tail = ftss_reference(
                self.app,
                fault_budget=fault_budget,
                start_time=start,
                prior_completed=self.ctx.names_of(prior_completed),
                prior_dropped=self.ctx.names_of(prior_dropped),
                config=self.config.ftss,
            )
        else:
            tail = ftss_compiled(
                self.ctx, self.config.ftss, fault_budget, start,
                prior_completed, prior_dropped,
            )
        self._tail_memo[key] = tail
        return tail

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def _profile(
        self, schedule: FSchedule, from_position: int
    ) -> Tuple[TailProfile, object]:
        """Clone of :func:`repro.quasistatic.intervals.tail_profile`
        with memoized stale coefficients, cached by schedule value, and
        its terms as the C core reads them (``None`` when a term's
        utility is not piecewise constant).

        The profile reads only the entry list, the dropped sets derived
        from it and the priors — not the start time — so the key is the
        value identity of those inputs (an ``id()``-based key could be
        recycled across builds of a persistent engine)."""
        key = (
            schedule.signature(),
            schedule.prior_completed,
            schedule.prior_dropped,
            from_position,
        )
        hit = self._profile_cache.get(key)
        if hit is not None:
            return hit
        ctx = self.ctx
        entry_pids = [ctx.pid[e.name] for e in schedule.entries]
        settled = ctx.mask(schedule.prior_completed)
        for p in entry_pids:
            settled |= 1 << p
        prior_dropped = ctx.mask(schedule.prior_dropped)
        # schedule.all_dropped: the soft processes it leaves out, plus
        # the ones dropped before its start.
        alphas = ctx.alphas(
            ctx.soft_mask & ~(settled | prior_dropped) | prior_dropped
        )
        terms = []
        rows = []
        mean = 0.0
        variance = 0.0
        lo_sum = 0
        hi_sum = 0
        count = 0
        for p in entry_pids[from_position:]:
            mean += ctx.aet[p]
            span = ctx.wcet[p] - ctx.bcet[p]
            variance += (span * span) / 12.0
            lo_sum += ctx.bcet[p]
            hi_sum += ctx.wcet[p]
            count += 1
            if not ctx.is_hard[p]:
                terms.append(
                    TailTerm(
                        alpha=alphas[p],
                        fn=ctx.utilities[p],
                        mean=mean,
                        variance=variance,
                        lo_sum=lo_sum,
                        hi_sum=hi_sum,
                        count=count,
                    )
                )
                rows.append(
                    (p, count, lo_sum, hi_sum, alphas[p], mean, variance)
                )
        profile = TailProfile(terms=tuple(terms), period=ctx.period)
        c_terms = (
            ctx.core.tail_terms(rows)
            if all(term.fn.is_piecewise_constant() for term in terms)
            else None
        )
        self._profile_cache[key] = (profile, c_terms)
        return profile, c_terms

    def _expectations(
        self, profile: TailProfile, c_terms, points: List[int]
    ) -> np.ndarray:
        """``profile.expected`` at every one of ``points``: one
        ``rk_expected`` call, or the oracle point by point where the C
        path cannot run."""
        values = self.ctx.core.expected(c_terms, points)
        if values is None:
            values = np.array(
                [profile.expected(tc) for tc in points], dtype=np.float64
            )
        return values

    def _partition(
        self,
        parent: FSchedule,
        parent_position: int,
        child: FSchedule,
        lo: int,
        hi: int,
    ) -> PartitionResult:
        """Clone of :func:`repro.quasistatic.intervals.partition` with
        the closed-form safety bound and one expectation call per
        profile."""
        stride = self.config.interval_stride
        if lo > hi:
            return PartitionResult(intervals=(), improvement=0.0)
        trace_span = hi - lo + 1
        safe_hi = fast_latest_safe_start(child, lo, hi, self.ctx)
        if safe_hi is None:
            return PartitionResult(intervals=(), improvement=0.0)
        hi = min(hi, safe_hi)
        if lo > hi:
            return PartitionResult(intervals=(), improvement=0.0)
        parent_profile, parent_terms = self._profile(
            parent, parent_position + 1
        )
        child_profile, child_terms = self._profile(child, 0)
        points = sorted(
            set(parent_profile.critical_points(lo, hi, stride))
            | set(child_profile.critical_points(lo, hi, stride))
        )
        gains = (
            self._expectations(child_profile, child_terms, points)
            - self._expectations(parent_profile, parent_terms, points)
        ).tolist()
        margin = 1e-6
        intervals: List[Tuple[int, int]] = []
        gain_integral = 0.0
        current_start: Optional[int] = None
        n_points = len(points)
        for idx, point in enumerate(points):
            gain = gains[idx]
            seg_end = points[idx + 1] - 1 if idx + 1 < n_points else hi
            wins = gain > margin
            if wins:
                gain_integral += gain * (seg_end - point + 1)
            if wins and current_start is None:
                current_start = point
            if not wins and current_start is not None:
                intervals.append((current_start, point - 1))
                current_start = None
            if wins and idx + 1 == n_points:
                intervals.append((current_start, seg_end))
                current_start = None
        valid = tuple((a, b) for a, b in intervals if a <= b)
        return PartitionResult(
            intervals=valid, improvement=gain_integral / trace_span
        )

    def _evaluate(
        self,
        schedule: FSchedule,
        position: int,
        switch_process: str,
        faults: int,
        start: int,
        hi: int,
        prefix_completed: int,
        parent_signature: Tuple,
    ) -> Optional[_CandidateResult]:
        """Tail + partition of one (position, faults) candidate;
        ``prefix_completed`` is the mask of the processes done before
        the tail starts."""
        config = self.config
        self.stats.candidates_evaluated += 1
        tail = self._tail(
            schedule.fault_budget - faults,
            start,
            prefix_completed,
            self.ctx.mask(schedule.prior_dropped),
        )
        if tail is None or len(tail) == 0:
            return None
        if faults == 0 and tail.signature() == parent_signature:
            return None
        if config.use_interval_partitioning:
            result = self._partition(schedule, position, tail, start, hi)
        else:
            safe_hi = fast_latest_safe_start(tail, start, hi, self.ctx)
            if safe_hi is None:
                return None
            result = PartitionResult(
                intervals=((start, safe_hi),), improvement=1.0
            )
        if not result.beneficial:
            return None
        return _CandidateResult(
            position=position,
            assumed_faults=faults,
            switch_process=switch_process,
            tail=tail,
            intervals=result.intervals,
            improvement=result.improvement,
        )

    # ------------------------------------------------------------------
    # Per-node candidate generation
    # ------------------------------------------------------------------
    def _node_prefix_data(self, schedule: FSchedule):
        """Cumulative best/worst-case data per position, computed once
        per node instead of O(n) per candidate; the prefix sets are
        masks."""
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
        for entry in schedule.entries:
            p = ctx.pid[entry.name]
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
        return prefix_best, worst_completion, prefix_sets

    def _schedule_spec(self, schedule: FSchedule) -> Tuple:
        return (
            schedule.entries,
            schedule.start_time,
            schedule.fault_budget,
            tuple(sorted(schedule.prior_completed)),
            tuple(sorted(schedule.prior_dropped)),
            schedule.slack_sharing,
        )

    def _schedule_from_spec(self, spec: Tuple) -> FSchedule:
        hit = self._spec_cache.get(spec)
        if hit is None:
            entries, start, budget, completed, dropped, sharing = spec
            hit = FSchedule(
                self.app,
                list(entries),
                start_time=start,
                fault_budget=budget,
                prior_completed=completed,
                prior_dropped=dropped,
                slack_sharing=sharing,
            )
            self._spec_cache[spec] = hit
        return hit

    def _candidates(self, node: QSNode) -> List[_CandidateResult]:
        ctx = self.ctx
        config = self.config
        schedule = node.schedule
        entries = schedule.entries
        budget = schedule.fault_budget
        if len(entries) < 2:
            return []
        prefix_best, worst_completion, prefix_sets = self._node_prefix_data(
            schedule
        )
        jobs_plan: List[Tuple] = []
        for position in range(len(entries) - 1):
            entry = entries[position]
            fault_range = [0]
            if config.fault_children and budget > 0:
                max_f = min(
                    entry.reexecutions, budget, config.max_fault_variants
                )
                fault_range += list(range(1, max_f + 1))
            hi = worst_completion[position]
            parent_signature = tuple(
                (e.name, e.reexecutions) for e in entries[position + 1 :]
            )
            p = ctx.pid[entry.name]
            for faults in fault_range:
                start = (
                    prefix_best[position]
                    + (faults + 1) * ctx.bcet[p]
                    + faults * ctx.mu[p]
                )
                if start > hi:
                    continue
                jobs_plan.append(
                    (
                        position,
                        entry.name,
                        faults,
                        start,
                        hi,
                        prefix_sets[position],
                        parent_signature,
                    )
                )

        results: List[_CandidateResult] = []
        if self.jobs > 1 and len(jobs_plan) > 1:
            spec = self._schedule_spec(schedule)
            tasks = [
                (spec, position, name, faults, start, hi, prefix, signature)
                for position, name, faults, start, hi, prefix, signature
                in jobs_plan
            ]
            self.stats.candidates_evaluated += len(tasks)
            pool = self._ensure_pool()
            raw = pool.map(_synthesis_worker_eval, tasks, self._context)
            prior_dropped = frozenset(schedule.prior_dropped)
            for item, outcome in zip(jobs_plan, raw):
                if outcome is None:
                    continue
                position, name, faults, start, hi, prefix, _ = item
                tail_entries, intervals, improvement = outcome
                tail = FSchedule(
                    self.app,
                    list(tail_entries),
                    start_time=start,
                    fault_budget=budget - faults,
                    prior_completed=ctx.names_of(prefix),
                    prior_dropped=prior_dropped,
                    slack_sharing=config.ftss.slack_sharing,
                )
                results.append(
                    _CandidateResult(
                        position=position,
                        assumed_faults=faults,
                        switch_process=name,
                        tail=tail,
                        intervals=intervals,
                        improvement=improvement,
                    )
                )
        else:
            for position, name, faults, start, hi, prefix, sig in jobs_plan:
                candidate = self._evaluate(
                    schedule, position, name, faults, start, hi, prefix, sig
                )
                if candidate is not None:
                    results.append(candidate)
        return results

    # ------------------------------------------------------------------
    # Tree growth
    # ------------------------------------------------------------------
    def _register(self, tree: QSTree, node: QSNode) -> None:
        """Incremental similarity bookkeeping on node insertion.

        Updates the running per-node maxima on both sides, so a later
        ``similarity_to_tree`` query is a dict lookup; max over the
        same float set as the reference's full scan, hence identical.
        """
        best = 0.0
        for other in tree:
            if other.node_id == node.node_id:
                continue
            value = schedule_similarity(node.schedule, other.schedule)
            if value > best:
                best = value
            if value > self._best_similarity.get(other.node_id, 0.0):
                self._best_similarity[other.node_id] = value
        self._best_similarity[node.node_id] = best

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
            child = tree.add_child(
                node.node_id,
                candidate.tail,
                switch_process=candidate.switch_process,
                assumed_faults=candidate.assumed_faults,
                layer=layer,
            )
            self._signatures.add(candidate.tail.signature())
            required = app_k - candidate.tail.fault_budget
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
            self._register(tree, child)

    def build(self, root_schedule: FSchedule) -> QSTree:
        """Grow the quasi-static tree Φ — fast twin of
        :func:`repro.quasistatic.ftqs.ftqs`."""
        started = time.perf_counter()
        config = self.config
        self._best_similarity = {}
        self._expected_utility = {}
        self._signatures = {root_schedule.signature()}
        tree = QSTree(root_schedule)
        self._best_similarity[tree.root_id] = 0.0
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


def ftqs_fast(
    app,
    root_schedule: FSchedule,
    config: FTQSConfig = DEFAULT_FTQS_CONFIG,
    jobs: int = 1,
    stats: Optional[SynthesisStats] = None,
    pool=None,
) -> QSTree:
    """Build the quasi-static tree with the fast synthesis engine.

    Byte-identical to :func:`repro.quasistatic.ftqs.ftqs` with
    ``synthesis="reference"`` for any ``jobs`` count.  ``pool`` may be
    a shared :class:`~repro.runtime.engine.parallel.TaskPool` (see
    :class:`repro.pipeline.resources.ResourceManager`); it is
    borrowed, not closed.
    """
    with SynthesisEngine(
        app, config, jobs=jobs, stats=stats, pool=pool
    ) as engine:
        return engine.build(root_schedule)
