"""Per-scenario batch results and the plan the C core wraps.

:class:`BatchResult` holds one batch run's per-scenario outcomes as
arrays (switch chains become tuples only when read): what the
differential suite compares, and what :class:`BatchTotals` sums.

:class:`BatchSimulator` prepares one plan for execution: the plan as
a tree, its behavioral oracle
(:class:`~repro.runtime.online.OnlineScheduler`) and whatever fast
path a subclass readies in :meth:`~BatchSimulator.prepare` — the
kernel engine fetches or lowers the plan's tables there, so they are
part of construction.  Its :meth:`~BatchSimulator.run_batch` replays
every scenario of a batch on the oracle.  That replay is the whole
``reference`` engine
(:func:`~repro.evaluation.montecarlo.simulator_for` returns a plain
:class:`BatchSimulator` for it, inline and in every shard), the kernel
engine's degradation path — when no core or no tables can be had —
and, per scenario, its residual path for scenarios the C walk flags as
outside its state model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.errors import RuntimeModelError
from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.online import OnlineScheduler
from repro.scheduling.fschedule import FSchedule


class BatchTotals(NamedTuple):
    """A batch run's utilities array and integer sums, no chains."""

    utilities: np.ndarray  # (S,) float64
    deadline_misses: int
    switches: int
    faults: int
    fallbacks: int


@dataclass
class BatchResult:
    """Per-scenario outcomes of one batch run.

    The four quantities the evaluation layer aggregates (and the
    differential harness compares against the oracle), plus the switch
    chains (row ``i`` of ``chains`` up to ``switch_counts[i]``) and a
    mask of which scenarios the C core resolved itself.
    """

    utilities: np.ndarray        # (S,) float64
    deadline_miss: np.ndarray    # (S,) bool
    switch_counts: np.ndarray    # (S,) int64
    faults_observed: np.ndarray  # (S,) int64
    chains: np.ndarray = field(repr=False)     # (S, width) int64
    fast_path: np.ndarray = field(repr=False)  # (S,) bool

    @classmethod
    def empty(cls, n: int, width: int = 0) -> "BatchResult":
        """Zeroed outcomes for ``n`` scenarios, none on the fast path."""
        return cls(
            utilities=np.zeros(n, dtype=np.float64),
            deadline_miss=np.zeros(n, dtype=bool),
            switch_counts=np.zeros(n, dtype=np.int64),
            faults_observed=np.zeros(n, dtype=np.int64),
            chains=np.zeros((n, width), dtype=np.int64),
            fast_path=np.zeros(n, dtype=bool),
        )

    @property
    def n_scenarios(self) -> int:
        return len(self.utilities)

    @property
    def n_fast(self) -> int:
        return int(self.fast_path.sum())

    @property
    def n_fallback(self) -> int:
        return self.n_scenarios - self.n_fast

    @cached_property
    def switch_chains(self) -> List[Tuple[int, ...]]:
        """Every scenario's switch chain as a tuple of node ids (``()``
        when it never switched), built on first access."""
        counts = self.switch_counts.tolist()
        return [tuple(row[:n]) for row, n in zip(self.chains.tolist(), counts)]

    def set_chain(self, i: int, chain: Sequence[int]) -> None:
        """Record scenario ``i``'s switch chain and count, widening the
        chain matrix for a chain longer than a row."""
        extra = len(chain) - self.chains.shape[1]
        if extra > 0:
            self.chains = np.pad(self.chains, ((0, 0), (0, extra)))
        self.chains[i, : len(chain)] = chain
        self.switch_counts[i] = len(chain)
        self.__dict__.pop("switch_chains", None)  # a stale cache

    def totals(self) -> BatchTotals:
        """The utilities array and integer sums an outcome reads."""
        return BatchTotals(
            self.utilities,
            int(self.deadline_miss.sum()),
            int(self.switch_counts.sum()),
            int(self.faults_observed.sum()),
            self.n_fallback,
        )


class BatchSimulator:
    """One plan prepared for execution, with its oracle.

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
        self._oracle = OnlineScheduler(app, plan, record_events=False)
        self.tree = self._oracle.tree
        self.names = tuple(p.name for p in app.processes)
        self.prepare()

    def prepare(self) -> None:
        """Ready a fast path at the end of construction; the oracle
        replay needs none."""

    def check_columns(self, batch: ScenarioBatch) -> None:
        """Reject a batch packed for another application."""
        if batch.names != self.names:
            raise RuntimeModelError(
                "batch process columns do not match the application "
                f"({batch.names!r} vs {self.names!r})"
            )

    def run_batch(self, batch: ScenarioBatch) -> BatchResult:
        """Replay every scenario of ``batch`` on the oracle."""
        self.check_columns(batch)
        result = BatchResult.empty(batch.n_scenarios)
        for i in range(batch.n_scenarios):
            self._run_oracle(batch, i, result)
        return result

    def _run_oracle(
        self, batch: ScenarioBatch, i: int, result: BatchResult
    ) -> None:
        outcome = self._oracle.run(batch.scenario(i))
        result.utilities[i] = outcome.utility
        result.deadline_miss[i] = not outcome.met_all_hard_deadlines
        result.faults_observed[i] = outcome.faults_observed
        result.set_chain(i, outcome.switches)
