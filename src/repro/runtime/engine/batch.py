"""Scenario sets as NumPy arrays, the input of every simulation engine.

A :class:`ScenarioBatch` is a scenario set in structure-of-arrays
form: one ``(scenarios, processes, attempts)`` integer array of
execution times and one ``(scenarios, processes)`` array of
per-process fault counts.  Process columns follow ``app.processes``
order, the order the draw's RNG stream fixes; the C core finds a
process's column through its record's ``col``.  The batch
is also a read-only sequence of
:class:`~repro.faults.injection.ExecutionScenario` objects, built on
access, which is how the reference engine reads it.

:meth:`ScenarioBatch.draw` samples the paired sets of a
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator` straight
into arrays, making the same RNG draws, in the same order, as the
per-scenario :class:`~repro.faults.injection.ScenarioSampler` calls —
the property tests in ``tests/test_engine_batch.py`` pin this down.
:meth:`ScenarioBatch.from_scenarios` packs hand-built scenarios.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import RuntimeModelError
from repro.faults.injection import ExecutionScenario
from repro.faults.model import FaultScenario
from repro.model.application import Application


@dataclass
class ScenarioBatch(Sequence):
    """A scenario set packed into NumPy arrays.

    Attributes
    ----------
    names:
        Process name per array column (``app.processes`` order).
    durations:
        ``(n_scenarios, n_processes, max_attempts)`` int64 array;
        ``durations[s, p, a]`` is the execution time of attempt ``a``
        of process ``p`` in scenario ``s``.  Attempts beyond a
        scenario's recorded list repeat its last value, mirroring
        :meth:`ExecutionScenario.duration_of`.
    fault_counts:
        ``(n_scenarios, n_processes)`` int64 array of consecutive
        failed attempts per process (the packed fault patterns).
    """

    names: Tuple[str, ...]
    durations: np.ndarray
    fault_counts: np.ndarray

    def __post_init__(self) -> None:
        if self.durations.ndim != 3:
            raise RuntimeModelError(
                f"durations must be 3-D, got shape {self.durations.shape}"
            )
        if self.fault_counts.shape != self.durations.shape[:2]:
            raise RuntimeModelError(
                "fault_counts shape "
                f"{self.fault_counts.shape} does not match durations "
                f"{self.durations.shape[:2]}"
            )
        if self.durations.shape[1] != len(self.names):
            raise RuntimeModelError(
                f"{len(self.names)} process names for "
                f"{self.durations.shape[1]} duration columns"
            )
        if self.durations.shape[2] < 1:
            raise RuntimeModelError("batch needs at least one attempt column")

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def n_scenarios(self) -> int:
        return self.durations.shape[0]

    @property
    def max_attempts(self) -> int:
        return self.durations.shape[2]

    def __len__(self) -> int:
        return self.n_scenarios

    def total_faults(self) -> np.ndarray:
        """Total fault count of every scenario, ``(n_scenarios,)``."""
        return self.fault_counts.sum(axis=1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def draw(
        cls,
        app: Application,
        n_scenarios: int,
        fault_counts: List[int],
        rng: np.random.Generator,
    ) -> Dict[int, "ScenarioBatch"]:
        """One scenario set per fault count, drawn in one pass.

        The sets are paired: the ``i``-th scenario of every fault
        count has the same execution times and differs only in its
        fault pattern.  Every set shares one read-only ``durations``
        array with ``max(fault_counts) + 1`` attempt columns, and their
        ``fault_counts`` are read-only views of one stacked
        ``(len(fault_counts), n_scenarios, n_processes)`` array.
        ``fault_counts`` must be distinct and non-negative; counts
        above ``app.k`` are drawn like any other.

        The RNG stream is that of the per-scenario sampler: first
        ``ScenarioSampler.sample_durations(max(fault_counts) + 1)``
        for every scenario, then, per fault count in the given order,
        ``sample_scenario`` for every scenario.  NumPy consumes its bit
        stream element by element in C order, so one broadcast
        ``integers`` call and one ``choice`` call per fault count
        reproduce those loops draw for draw.
        """
        names = tuple(p.name for p in app.processes)
        n_processes = len(names)
        lo = np.array([p.bcet for p in app.processes], dtype=np.int64)
        hi = np.array([p.wcet for p in app.processes], dtype=np.int64)
        durations = rng.integers(
            lo[None, :, None],
            hi[None, :, None] + 1,
            size=(n_scenarios, n_processes, max(fault_counts) + 1),
        )
        counts = np.zeros(
            (len(fault_counts), n_scenarios, n_processes), dtype=np.int64
        )
        # Flat (scenario, process) cell of every pick, for one bincount.
        row_offsets = np.arange(n_scenarios)[:, None] * n_processes
        for i, faults in enumerate(fault_counts):
            if faults > 0:
                picks = rng.choice(n_processes, size=(n_scenarios, faults))
                counts[i] = np.bincount(
                    (row_offsets + picks).ravel(),
                    minlength=n_scenarios * n_processes,
                ).reshape(n_scenarios, n_processes)
        durations.flags.writeable = False
        counts.flags.writeable = False
        return {
            faults: cls(names, durations, counts[i])
            for i, faults in enumerate(fault_counts)
        }

    @classmethod
    def from_scenarios(
        cls,
        app: Application,
        scenarios: Sequence[ExecutionScenario],
    ) -> "ScenarioBatch":
        """Pack hand-built scenarios into arrays (no RNG involved).

        Every scenario must carry a non-empty duration list for every
        process of ``app``; fault patterns naming processes outside the
        application are ignored — such processes can never be scheduled,
        so their faults can never be observed.
        """
        scenario_list = list(scenarios)
        if not scenario_list:
            raise RuntimeModelError("cannot pack an empty scenario list")
        names = tuple(p.name for p in app.processes)
        index = {name: p for p, name in enumerate(names)}
        rows: List[List[Sequence[int]]] = []
        widths = set()
        for scenario in scenario_list:
            row = []
            for name in names:
                attempts = scenario.durations.get(name)
                if not attempts:
                    raise RuntimeModelError(
                        f"scenario has no durations for process {name!r}"
                    )
                row.append(attempts)
                widths.add(len(attempts))
            rows.append(row)
        durations = np.empty(
            (len(scenario_list), len(names), max(widths)), dtype=np.int64
        )
        for s, row in enumerate(rows):
            for p, attempts in enumerate(row):
                durations[s, p, : len(attempts)] = attempts
                durations[s, p, len(attempts):] = attempts[-1]
        faults = np.zeros((len(scenario_list), len(names)), dtype=np.int64)
        for s, scenario in enumerate(scenario_list):
            for name, hits in scenario.faults.hits:
                p = index.get(name)
                if p is not None:
                    faults[s, p] = hits
        return cls(names, durations, faults)

    # ------------------------------------------------------------------
    # Unpacking
    # ------------------------------------------------------------------
    def scenario(self, i: int) -> ExecutionScenario:
        """Scenario ``i`` (any integer, negative counting from the
        end) as an :class:`ExecutionScenario` rebuilt from the arrays:
        one attempt tuple per process and its fault pattern."""
        i = operator.index(i)  # NumPy raises IndexError out of range
        durations = dict(
            zip(self.names, map(tuple, self.durations[i].tolist()))
        )
        hits = {
            name: count
            for name, count in zip(self.names, self.fault_counts[i].tolist())
            if count
        }
        return ExecutionScenario(durations, FaultScenario.of(hits))

    def __getitem__(self, i: int) -> ExecutionScenario:
        return self.scenario(i)

    def rows(self, lo: int, hi: int) -> "ScenarioBatch":
        """Scenarios ``[lo, hi)`` as a batch of array views (no copies)
        — one shard of a sharded evaluation."""
        return ScenarioBatch(
            self.names, self.durations[lo:hi], self.fault_counts[lo:hi]
        )
