"""Array-packed scenario batches for the batched simulation engine.

A :class:`ScenarioBatch` is the structure-of-arrays form of a list of
:class:`~repro.faults.injection.ExecutionScenario` objects: one
``(scenarios, processes, attempts)`` integer array of execution times
and one ``(scenarios, processes)`` array of per-process fault counts.
Process columns follow ``app.processes`` order, so a compiled plan can
address them by integer id.

Batches can be packed from existing scenarios (the paired sets a
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator` generates)
or sampled directly via :meth:`ScenarioBatch.sample` /
:meth:`ScenarioSampler.sample_batch`.  Direct sampling makes exactly
the same RNG calls, in the same order, as the per-scenario
:meth:`ScenarioSampler.sample` loop, so a batch sampled from seed ``s``
is byte-identical to the packed form of ``sample_many`` under seed
``s`` — the property tests in ``tests/test_engine_batch.py`` pin this
down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, RuntimeModelError
from repro.faults.injection import ExecutionScenario
from repro.faults.model import FaultScenario
from repro.model.application import Application

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injection import ScenarioSampler


@dataclass
class ScenarioBatch:
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
    _scenarios: Optional[List[ExecutionScenario]] = field(
        default=None, repr=False
    )
    _attempt_cumsum: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

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
    def n_processes(self) -> int:
        return self.durations.shape[1]

    @property
    def max_attempts(self) -> int:
        return self.durations.shape[2]

    def __len__(self) -> int:
        return self.n_scenarios

    def total_faults(self) -> np.ndarray:
        """Total fault count of every scenario, ``(n_scenarios,)``."""
        return self.fault_counts.sum(axis=1)

    def attempt_cumsum(self) -> np.ndarray:
        """``durations`` cumulated over the attempt axis (cached).

        ``attempt_cumsum()[s, p, a]`` is the total execution time of
        attempts ``0..a``; evaluators replay one batch against many
        plans, so the simulator reuses this instead of recomputing it
        per run.
        """
        if self._attempt_cumsum is None:
            self._attempt_cumsum = np.cumsum(self.durations, axis=2)
        return self._attempt_cumsum

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_scenarios(
        cls,
        app: Application,
        scenarios: Sequence[ExecutionScenario],
    ) -> "ScenarioBatch":
        """Pack existing scenarios into arrays (no RNG involved).

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
        width = max(widths)
        if len(widths) == 1:
            # Uniform attempt counts (the evaluator's sampled sets):
            # one C-level conversion instead of per-cell assignments.
            durations = np.array(rows, dtype=np.int64)
        else:
            durations = np.empty(
                (len(scenario_list), len(names), width), dtype=np.int64
            )
            for s, row in enumerate(rows):
                for p, attempts in enumerate(row):
                    n = len(attempts)
                    durations[s, p, :n] = attempts
                    if n < width:
                        durations[s, p, n:] = attempts[-1]
        faults = np.zeros((len(scenario_list), len(names)), dtype=np.int64)
        for s, scenario in enumerate(scenario_list):
            for name, hits in scenario.faults.hits:
                p = index.get(name)
                if p is not None:
                    faults[s, p] = hits
        return cls(names, durations, faults, _scenarios=scenario_list)

    @classmethod
    def sample(
        cls,
        sampler: "ScenarioSampler",
        count: int,
        faults: int = 0,
    ) -> "ScenarioBatch":
        """Draw ``count`` scenarios with exactly ``faults`` faults each.

        Replays :meth:`ScenarioSampler.sample_many` draw for draw —
        per scenario: the fault pattern first, then one broadcast
        ``integers`` call covering all processes and attempts (NumPy
        consumes the bit stream element-by-element in C order, so the
        broadcast call is byte-identical to the per-process loop of
        :meth:`ScenarioSampler.sample_durations`).
        """
        from repro.faults.scenarios import sample_scenario

        app = sampler.app
        if count < 1:
            raise RuntimeModelError("need at least one scenario")
        if faults > app.k:
            raise ModelError(
                f"{faults} faults exceed the application's budget k={app.k}"
            )
        names = tuple(p.name for p in app.processes)
        index = {name: p for p, name in enumerate(names)}
        lo = np.array([p.bcet for p in app.processes], dtype=np.int64)
        hi = np.array([p.wcet for p in app.processes], dtype=np.int64)
        width = faults + 1
        durations = np.empty((count, len(names), width), dtype=np.int64)
        fault_counts = np.zeros((count, len(names)), dtype=np.int64)
        for s in range(count):
            pattern = sample_scenario(list(names), faults, sampler.rng)
            for name, hits in pattern.hits:
                fault_counts[s, index[name]] = hits
            durations[s] = sampler.rng.integers(
                lo[:, None], hi[:, None] + 1, size=(len(names), width)
            )
        return cls(names, durations, fault_counts)

    # ------------------------------------------------------------------
    # Unpacking
    # ------------------------------------------------------------------
    def scenario(self, i: int) -> ExecutionScenario:
        """The ``i``-th scenario as an :class:`ExecutionScenario`.

        Returns the original object when the batch was packed from
        scenarios; otherwise reconstructs an equivalent one from the
        arrays.
        """
        if self._scenarios is not None:
            return self._scenarios[i]
        durations: Dict[str, Tuple[int, ...]] = {
            name: tuple(int(x) for x in self.durations[i, p])
            for p, name in enumerate(self.names)
        }
        hits = {
            name: int(self.fault_counts[i, p])
            for p, name in enumerate(self.names)
            if self.fault_counts[i, p] > 0
        }
        pattern = FaultScenario.of(hits) if hits else FaultScenario.none()
        return ExecutionScenario(durations, pattern)

    def scenarios(self) -> List[ExecutionScenario]:
        """All scenarios of the batch (see :meth:`scenario`)."""
        return [self.scenario(i) for i in range(self.n_scenarios)]

    def rows(self, lo: int, hi: int) -> "ScenarioBatch":
        """Scenarios ``[lo, hi)`` as a batch of array views (no copies)
        — one shard of a sharded evaluation."""
        return ScenarioBatch(
            self.names,
            self.durations[lo:hi],
            self.fault_counts[lo:hi],
            _scenarios=(
                None if self._scenarios is None else self._scenarios[lo:hi]
            ),
        )
