"""The batched simulator: whole scenario sets per array operation.

:class:`BatchSimulator` executes a compiled plan over a
:class:`~repro.runtime.engine.batch.ScenarioBatch` by propagating
*cohorts*: groups of scenarios that currently sit at the same tree
node having executed (and dropped) the same process prefix.  A cohort
advances through its schedule **segment by segment**: between decision
points — the positions where a scheduled *soft* process is faulted for
some member (paper §2.2) — a whole run of positions is executed in one
closed-form vectorized step (completion times are prefix sums over the
duration arrays; faults on hard processes add their re-execution and
recovery terms in closed form; arc conditions are evaluated as boolean
masks per position, first match winning exactly like the oracle's
most-fault-specific tie-break).  At a decision point the cohort steps
through the single faulted entry, resolving the drop/re-execute
decision against tables compiled per plan
(:class:`~repro.runtime.engine.decisions.DecisionTables`): the S_iH
schedulability probe collapses to one integer clock threshold per
(node, position, attempt, remaining budget), and the keep-vs-drop
utility comparison to a piecewise-constant boolean function of the
clock — both exact, because the tables are evaluated with the same
integer arithmetic and the same oracle float code the online scheduler
runs.  The decision splits the cohort into re-executed completers and
droppers, and segment stepping resumes.

No-soft-fault scenarios are simply the zero-decision-point special
case: every node is one segment, so they run entirely in closed form.
Scenarios that finish in a cohort are finalized together: stale-value
coefficients depend only on the cohort's executed set, and the utility
sum is accumulated process by process in the oracle's completion order
— the same IEEE-754 operations in the same order, so results are
bit-identical to :class:`~repro.runtime.online.OnlineScheduler`.

The oracle fallback remains only for plans outside the state model —
trees whose arcs revisit executed or dropped processes, or whose §2.2
probe the oracle itself would reject — so it is the reference
implementation, never an approximation of it.  The vectorized share is
exposed as :attr:`BatchResult.fast_path` and the residual oracle share
as :attr:`BatchResult.n_fallback`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple, Union

import numpy as np

from repro.errors import RuntimeModelError
from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.compile import (
    CompiledNode,
    compile_application,
    compile_tree,
)
from repro.runtime.engine.decisions import DecisionTables
from repro.runtime.online import OnlineScheduler
from repro.scheduling.fschedule import FSchedule
from repro.utility.stale import stale_coefficients


@dataclass
class BatchResult:
    """Per-scenario outcomes of one batch run.

    The four quantities the evaluation layer aggregates (and the
    differential harness compares against the oracle), plus the switch
    chains and a mask of which scenarios took the vectorized path.
    """

    utilities: np.ndarray        # (S,) float64
    deadline_miss: np.ndarray    # (S,) bool
    switch_counts: np.ndarray    # (S,) int64
    faults_observed: np.ndarray  # (S,) int64
    switch_chains: List[Tuple[int, ...]] = field(repr=False)
    fast_path: np.ndarray = field(repr=False)

    @property
    def n_scenarios(self) -> int:
        return len(self.utilities)

    @property
    def n_fast(self) -> int:
        return int(self.fast_path.sum())

    @property
    def n_fallback(self) -> int:
        return self.n_scenarios - self.n_fast

    def raw_outcome(self) -> Tuple[List[float], int, int, int, int]:
        """The evaluation layer's raw tuple: (per-scenario utilities,
        deadline misses, total switches, total observed faults, oracle
        fallbacks)."""
        return (
            [float(u) for u in self.utilities],
            int(self.deadline_miss.sum()),
            int(self.switch_counts.sum()),
            int(self.faults_observed.sum()),
            self.n_fallback,
        )


@dataclass
class _Cohort:
    """Scenarios at the same node with the same executed/dropped prefix.

    Every member has completed exactly ``completed_ids`` in that order
    and dropped exactly ``dropped_ids``; per-member state (clock,
    observed faults, completion times) lives in parallel arrays.
    ``position`` is the next schedule position to execute — nonzero
    only for cohorts respawned mid-node by a §2.2 drop split.
    """

    node_id: int
    position: int                  # next schedule position to execute
    members: np.ndarray            # (M,) indices into the batch
    clock: np.ndarray              # (M,) current time per member
    observed: np.ndarray           # (M,) faults observed so far
    completed_ids: Tuple[int, ...]  # completed process ids, in order
    completed_times: np.ndarray    # (M, len(completed_ids))
    dropped_ids: FrozenSet[int]    # soft ids dropped after faults
    chain: Tuple[int, ...]         # node ids switched through, in order


class BatchSimulator:
    """Vectorized executor of one plan with an oracle fallback.

    Parameters
    ----------
    app:
        The application being executed.
    plan:
        A :class:`QSTree` or a single :class:`FSchedule` (treated as a
        one-node tree, exactly like :class:`OnlineScheduler`).
    """

    def __init__(self, app: Application, plan: Union[QSTree, FSchedule]):
        self.app = app
        self.capp = compile_application(app)
        self.ctree = compile_tree(self.capp, plan)
        self._oracle = OnlineScheduler(app, plan, record_events=False)
        self._tables = DecisionTables(self.capp, self.ctree, self._oracle)
        self._alphas_cache: Dict[FrozenSet[int], Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run_batch(self, batch: ScenarioBatch) -> BatchResult:
        """Execute every scenario of ``batch``; see :class:`BatchResult`."""
        if batch.names != self.capp.names:
            raise RuntimeModelError(
                "batch process columns do not match the application "
                f"({batch.names!r} vs {self.capp.names!r})"
            )
        n = batch.n_scenarios
        result = BatchResult(
            utilities=np.zeros(n, dtype=np.float64),
            deadline_miss=np.zeros(n, dtype=bool),
            switch_counts=np.zeros(n, dtype=np.int64),
            faults_observed=np.zeros(n, dtype=np.int64),
            switch_chains=[()] * n,
            fast_path=np.zeros(n, dtype=bool),
        )
        result.fast_path[:] = True
        self._run_cohorts(batch, np.arange(n, dtype=np.int64), result)
        for i in np.flatnonzero(~result.fast_path):
            self._run_oracle(batch, int(i), result)
        return result

    # ------------------------------------------------------------------
    # Fallback
    # ------------------------------------------------------------------
    def _run_oracle(
        self, batch: ScenarioBatch, i: int, result: BatchResult
    ) -> None:
        outcome = self._oracle.run(batch.scenario(i))
        result.utilities[i] = outcome.utility
        result.deadline_miss[i] = not outcome.met_all_hard_deadlines
        result.switch_counts[i] = len(outcome.switches)
        result.faults_observed[i] = outcome.faults_observed
        result.switch_chains[i] = outcome.switches

    # ------------------------------------------------------------------
    # Segment-stepped cohort propagation
    # ------------------------------------------------------------------
    def _decision_schedule(
        self,
        node: CompiledNode,
        position: int,
        members: np.ndarray,
        faults: np.ndarray,
    ) -> List[int]:
        """Positions at or after ``position`` needing a §2.2 step.

        A decision point is a scheduled soft entry on which *some*
        cohort member observes a fault; candidates come from the
        compiled decision-point index, so hard entries (always
        re-executed in closed form) never break a segment.  Computed
        once per cohort visit from the arriving member set — a later
        drop/switch split only shrinks the set, so the schedule stays
        a (conservative) superset and a position whose faulty members
        all left degenerates to a cheap fault-free step.
        """
        points = self._tables.decision_points(node.node_id)
        tail = points[np.searchsorted(points, position):]
        if not tail.size:
            return []
        faulted = (
            faults[np.ix_(members, node.entry_ids[tail])] > 0
        ).any(axis=0)
        return [int(p) for p in tail[faulted]]

    @staticmethod
    def _match_arcs(
        arcs: Tuple,
        at_completion: np.ndarray,
        at_observed: np.ndarray,
        switched: np.ndarray,
        switch_target: np.ndarray,
    ) -> np.ndarray:
        """First matching arc per still-unswitched member at one position.

        Arcs are pre-sorted by ``(-required_faults, target)``, so the
        first hit per member reproduces the oracle's most-fault-
        specific tie-break.  Mutates ``switched``/``switch_target`` in
        place and returns the mask of members newly switched here.
        """
        undecided = ~switched
        newly = np.zeros(switched.size, dtype=bool)
        for lo, hi, required, target in arcs:
            hit = (
                undecided
                & (at_completion >= lo)
                & (at_completion <= hi)
                & (at_observed >= required)
            )
            if hit.any():
                switch_target[hit] = target
                switched |= hit
                newly |= hit
                undecided &= ~hit
        return newly

    def _run_cohorts(
        self,
        batch: ScenarioBatch,
        indices: np.ndarray,
        result: BatchResult,
    ) -> None:
        """Segment-stepped cohort propagation with §2.2 decisions.

        Each cohort advances through maximal decision-free position
        runs in one closed-form step (prefix-sum completions, masked
        arc matching per position) and stops only at decision points,
        where the faulted soft entry is stepped attempt by attempt
        against the compiled :class:`DecisionTables`, splitting the
        cohort into re-executed completers and droppers.  The oracle
        keeps only the cases its own §2.2 probe would reject (see
        :meth:`DecisionTables.probe_would_raise`) and malformed trees
        whose arcs revisit executed or dropped processes.
        """
        width = batch.max_attempts
        cum_dur = batch.attempt_cumsum()
        last_dur = batch.durations[:, :, width - 1]
        faults = batch.fault_counts
        capp = self.capp
        k = capp.app.k
        tables = self._tables
        n_nodes = len(self.ctree.nodes)
        stack: List[_Cohort] = [
            _Cohort(
                node_id=self.ctree.root_id,
                position=0,
                members=indices,
                clock=np.zeros(indices.size, dtype=np.int64),
                observed=np.zeros(indices.size, dtype=np.int64),
                completed_ids=(),
                completed_times=np.empty((indices.size, 0), dtype=np.int64),
                dropped_ids=frozenset(),
                chain=(),
            )
        ]
        while stack:
            cohort = stack.pop()
            node = self.ctree.nodes[cohort.node_id]
            # Defensive bail-outs: a malformed tree whose arcs revisit
            # ancestors, a child re-executing a completed process, or a
            # child re-scheduling a *dropped* process (the oracle would
            # run it again, and its §2.2 probe would reject it on the
            # next fault) is outside the fast path's state model — the
            # oracle handles those scenarios with full generality.
            if cohort.position == 0 and (
                len(cohort.chain) > n_nodes
                or (node.entry_set & set(cohort.completed_ids))
                or (node.entry_set & cohort.dropped_ids)
            ):
                result.fast_path[cohort.members] = False
                continue
            members = cohort.members
            clock = cohort.clock
            observed = cohort.observed
            completed_ids = cohort.completed_ids
            completed_times = cohort.completed_times
            dropped_ids = cohort.dropped_ids
            chain = cohort.chain
            position = cohort.position
            node_id = cohort.node_id
            ids = node.entry_ids
            length = node.n_entries
            decisions = self._decision_schedule(
                node, position, members, faults
            )
            next_decision = 0  # index into ``decisions``
            while position < length and members.size:
                if next_decision < len(decisions):
                    decision = decisions[next_decision]
                    next_decision += 1
                else:
                    decision = length
                if decision > position:
                    # ---- Closed-form segment [position, decision) ----
                    seg_ids = ids[position:decision]
                    entry_faults = faults[np.ix_(members, seg_ids)]
                    # Execution time of one entry including its
                    # re-executions: attempts 0..F plus F recovery
                    # overheads (hard processes always re-execute until
                    # the fault pattern is exhausted; soft entries of a
                    # segment are fault-free by construction).
                    clamped = np.minimum(entry_faults, width - 1)
                    spent = np.take_along_axis(
                        cum_dur[np.ix_(members, seg_ids)],
                        clamped[:, :, None],
                        axis=2,
                    )[:, :, 0]
                    spent += (entry_faults - clamped) * last_dur[
                        np.ix_(members, seg_ids)
                    ]
                    spent += (
                        entry_faults * node.entry_mu[position:decision][None, :]
                    )
                    completions = clock[:, None] + np.cumsum(spent, axis=1)
                    seg_observed = observed[:, None] + np.cumsum(
                        entry_faults, axis=1
                    )

                    n_members = members.size
                    switched = np.zeros(n_members, dtype=bool)
                    switch_pos = np.full(n_members, -1, dtype=np.int64)
                    switch_target = np.full(n_members, -1, dtype=np.int64)
                    lo_a, hi_a = np.searchsorted(
                        node.arc_positions, [position, decision]
                    )
                    for p in node.arc_positions[lo_a:hi_a]:
                        if switched.all():
                            break
                        offset = int(p) - position
                        newly = self._match_arcs(
                            node.arcs_at[p],
                            completions[:, offset],
                            seg_observed[:, offset],
                            switched,
                            switch_target,
                        )
                        switch_pos[newly] = p
                    if switched.any():
                        for p, target in {
                            (int(a), int(b))
                            for a, b in zip(
                                switch_pos[switched], switch_target[switched]
                            )
                        }:
                            selected = np.flatnonzero(
                                switched
                                & (switch_pos == p)
                                & (switch_target == target)
                            )
                            offset = p - position
                            stack.append(
                                _Cohort(
                                    node_id=target,
                                    position=0,
                                    members=members[selected],
                                    clock=completions[selected, offset],
                                    observed=seg_observed[selected, offset],
                                    completed_ids=completed_ids
                                    + tuple(
                                        int(i) for i in seg_ids[: offset + 1]
                                    ),
                                    completed_times=np.hstack(
                                        [
                                            completed_times[selected],
                                            completions[
                                                selected, : offset + 1
                                            ],
                                        ]
                                    ),
                                    dropped_ids=dropped_ids,
                                    chain=chain + (target,),
                                )
                            )
                        stay = np.flatnonzero(~switched)
                        members = members[stay]
                        clock = completions[stay, -1]
                        observed = seg_observed[stay, -1]
                        completed_times = np.hstack(
                            [completed_times[stay], completions[stay]]
                        )
                    else:
                        clock = completions[:, -1]
                        observed = seg_observed[:, -1]
                        completed_times = np.hstack(
                            [completed_times, completions]
                        )
                    completed_ids = completed_ids + tuple(
                        int(i) for i in seg_ids
                    )
                    position = decision
                    if position >= length or not members.size:
                        break

                # ---- §2.2 decision step at ``position`` ----
                pid = int(ids[position])
                f = faults[members, pid]
                pid_cum = cum_dur[members, pid, :]
                pid_last = last_dur[members, pid]
                entry_mu = int(node.entry_mu[position])
                n_members = members.size
                rows = np.arange(n_members)
                # Time of a full run: attempts 0..F plus F recoveries
                # (identical to the segment closed form above).
                clamped = np.minimum(f, width - 1)
                spent = (
                    pid_cum[rows, clamped]
                    + (f - clamped) * pid_last
                    + f * entry_mu
                )
                reexec_cap = int(node.entry_caps[position])
                retrying = f > 0
                will_complete = ~retrying
                dropped_mask = np.zeros(n_members, dtype=bool)
                drop_at_clock = np.zeros(n_members, dtype=np.int64)
                drop_at_obs = np.zeros(n_members, dtype=np.int64)
                completed_set = frozenset(completed_ids)
                if reexec_cap > 0 and tables.probe_would_raise(
                    node_id, position, completed_set
                ):
                    routed = np.flatnonzero(retrying)
                    result.fast_path[members[routed]] = False
                    retrying[:] = False
                hard_missing = reexec_cap > 0 and tables.missing_hard(
                    node_id, position, completed_set
                )
                benefit = None
                for a in range(int(f.max())):
                    finished = retrying & (f == a)
                    if finished.any():
                        will_complete |= finished
                        retrying &= ~finished
                    deciders = np.flatnonzero(retrying)
                    if deciders.size == 0:
                        break
                    # Fault of attempt ``a`` lands after attempts
                    # 0..a and ``a`` recovery overheads.
                    ca = min(a, width - 1)
                    clock_a = (
                        clock[deciders]
                        + pid_cum[deciders, ca]
                        + (a - ca) * pid_last[deciders]
                        + a * entry_mu
                    )
                    obs_a = observed[deciders] + (a + 1)
                    if a >= reexec_cap or hard_missing:
                        keep = np.zeros(deciders.size, dtype=bool)
                    else:
                        budget = np.maximum(k - obs_a, 0)
                        thresholds = tables.sched_thresholds(
                            node_id, position, a
                        )
                        keep = clock_a <= thresholds[budget]
                        kept = np.flatnonzero(keep)
                        if kept.size:
                            if benefit is None:
                                benefit = tables.benefit(
                                    node_id, position, dropped_ids
                                )
                            keep[kept] = benefit.lookup(clock_a[kept])
                    dropping = deciders[~keep]
                    if dropping.size:
                        dropped_mask[dropping] = True
                        drop_at_clock[dropping] = clock_a[~keep]
                        drop_at_obs[dropping] = obs_a[~keep]
                        retrying[dropping] = False
                will_complete |= retrying
                completer = np.flatnonzero(will_complete)
                comp_completion = clock[completer] + spent[completer]
                comp_observed = observed[completer] + f[completer]
                dropper = np.flatnonzero(dropped_mask)

                switched = np.zeros(completer.size, dtype=bool)
                switch_target = np.full(completer.size, -1, dtype=np.int64)
                arcs = node.arcs_at[position]
                if arcs and completer.size:
                    self._match_arcs(
                        arcs,
                        comp_completion,
                        comp_observed,
                        switched,
                        switch_target,
                    )

                new_completed_ids = completed_ids + (pid,)
                for target in {int(t) for t in switch_target[switched]}:
                    sel = np.flatnonzero(switched & (switch_target == target))
                    local = completer[sel]
                    stack.append(
                        _Cohort(
                            node_id=target,
                            position=0,
                            members=members[local],
                            clock=comp_completion[sel],
                            observed=comp_observed[sel],
                            completed_ids=new_completed_ids,
                            completed_times=np.hstack(
                                [
                                    completed_times[local],
                                    comp_completion[sel, None],
                                ]
                            ),
                            dropped_ids=dropped_ids,
                            chain=chain + (target,),
                        )
                    )
                if dropper.size:
                    stack.append(
                        _Cohort(
                            node_id=node_id,
                            position=position + 1,
                            members=members[dropper],
                            clock=drop_at_clock[dropper],
                            observed=drop_at_obs[dropper],
                            completed_ids=completed_ids,
                            completed_times=completed_times[dropper],
                            dropped_ids=dropped_ids | {pid},
                            chain=chain,
                        )
                    )
                cont = np.flatnonzero(~switched)
                local = completer[cont]
                members = members[local]
                clock = comp_completion[cont]
                observed = comp_observed[cont]
                completed_times = np.hstack(
                    [completed_times[local], comp_completion[cont, None]]
                )
                completed_ids = new_completed_ids
                position += 1
            if members.size:
                self._finalize_members(
                    members,
                    completed_ids,
                    completed_times,
                    observed,
                    chain,
                    result,
                )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _alphas(self, executed: FrozenSet[int]) -> Dict[str, float]:
        """Stale coefficients for a cohort's executed set (cached)."""
        cached = self._alphas_cache.get(executed)
        if cached is None:
            dropped = [
                self.capp.names[i]
                for i in self.capp.soft_ids
                if int(i) not in executed
            ]
            cached = stale_coefficients(self.app.graph, dropped)
            self._alphas_cache[executed] = cached
        return cached

    def _finalize_members(
        self,
        members: np.ndarray,
        completed_ids: Tuple[int, ...],
        completed_times: np.ndarray,
        observed_final: np.ndarray,
        chain: Tuple[int, ...],
        result: BatchResult,
    ) -> None:
        """Write final outcomes for members sharing one completed set.

        Processes absent from ``completed_ids`` were dropped (soft) or
        never ran (hard → deadline miss); both paths feed the same
        stale-coefficient key, because the oracle's final dropped set
        is exactly "every soft process that did not complete".
        """
        capp = self.capp
        executed_set = frozenset(completed_ids)
        alphas = self._alphas(executed_set)

        utilities = np.zeros(members.size, dtype=np.float64)
        misses = np.zeros(members.size, dtype=bool)
        for pid in capp.hard_ids:
            if int(pid) not in executed_set:
                misses[:] = True
                break
        # Accumulate utility in completion order — the same order (and
        # therefore the same float rounding) as the oracle's finalize.
        period = capp.period
        for column, pid in enumerate(completed_ids):
            times = completed_times[:, column]
            if capp.is_hard[pid]:
                misses |= times > capp.deadline[pid]
                continue
            in_time = times <= period
            if in_time.any():
                values = capp.utilities[pid](times[in_time])
                utilities[in_time] = (
                    utilities[in_time] + alphas[capp.names[pid]] * values
                )

        result.utilities[members] = utilities
        result.deadline_miss[members] = misses
        result.switch_counts[members] = len(chain)
        result.faults_observed[members] = observed_final
        for i in members:
            result.switch_chains[int(i)] = chain


def simulate_batch(
    app: Application,
    plan: Union[QSTree, FSchedule],
    batch: ScenarioBatch,
) -> BatchResult:
    """One-shot convenience wrapper around :class:`BatchSimulator`."""
    return BatchSimulator(app, plan).run_batch(batch)
