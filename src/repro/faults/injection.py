"""Execution scenarios: actual execution times + fault injection.

An :class:`ExecutionScenario` fixes everything the environment decides
during one operation cycle: the actual execution time of every attempt
of every process (drawn uniformly from [BCET, WCET] in the paper's
experiments, §6) and the fault pattern.  The runtime simulator replays
a scenario deterministically, so FTSS, FTSF and FTQS schedules are
compared on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ModelError, RuntimeModelError
from repro.faults.model import FaultScenario
from repro.model.application import Application


@dataclass(frozen=True)
class ExecutionScenario:
    """Deterministic environment for one simulated cycle.

    Attributes
    ----------
    durations:
        Map from process name to the list of execution times of its
        successive attempts (attempt 0, attempt 1, ...).  An attempt
        beyond the end of the list reuses the last value.
    faults:
        The fault pattern for the cycle.
    """

    durations: Mapping[str, Sequence[int]]
    faults: FaultScenario = field(default_factory=FaultScenario.none)

    def duration_of(self, name: str, attempt: int) -> int:
        """Execution time of ``attempt`` (0-based) of process ``name``."""
        try:
            attempts = self.durations[name]
        except KeyError:
            raise RuntimeModelError(
                f"scenario has no durations for process {name!r}"
            ) from None
        if not attempts:
            raise RuntimeModelError(f"empty duration list for {name!r}")
        index = min(attempt, len(attempts) - 1)
        return int(attempts[index])

    def fails(self, name: str, attempt: int) -> bool:
        """True when ``attempt`` (0-based) of ``name`` is hit by a fault."""
        return attempt < self.faults.failures_of(name)

    def first_attempt_durations(self) -> Dict[str, int]:
        """Duration of attempt 0 for each process (no-fault view)."""
        return {name: self.duration_of(name, 0) for name in self.durations}


def scenario_with_times(
    app: Application,
    times: Mapping[str, int],
    faults: Optional[FaultScenario] = None,
) -> ExecutionScenario:
    """Scenario where every attempt of a process takes the same time."""
    for name, value in times.items():
        proc = app.process(name)
        if not proc.bcet <= value <= proc.wcet:
            raise ModelError(
                f"{name}: time {value} outside [BCET, WCET] "
                f"[{proc.bcet}, {proc.wcet}]"
            )
    durations = {name: (int(value),) for name, value in times.items()}
    return ExecutionScenario(durations, faults or FaultScenario.none())


def average_case_scenario(
    app: Application, faults: Optional[FaultScenario] = None
) -> ExecutionScenario:
    """Every process takes its AET; optionally with a fault pattern."""
    return scenario_with_times(
        app, {p.name: p.aet for p in app.processes}, faults
    )


def worst_case_scenario(
    app: Application, faults: Optional[FaultScenario] = None
) -> ExecutionScenario:
    """Every process takes its WCET; optionally with a fault pattern."""
    return scenario_with_times(
        app, {p.name: p.wcet for p in app.processes}, faults
    )


def best_case_scenario(
    app: Application, faults: Optional[FaultScenario] = None
) -> ExecutionScenario:
    """Every process takes its BCET; optionally with a fault pattern."""
    return scenario_with_times(
        app, {p.name: p.bcet for p in app.processes}, faults
    )


class ScenarioSampler:
    """Random execution-scenario generator matching the paper's §6 setup.

    Execution times of each attempt are independent uniform draws from
    [BCET, WCET]; fault locations are uniform over processes.  All
    randomness flows through one :class:`numpy.random.Generator` so the
    whole evaluation is reproducible from a single seed.
    """

    def __init__(self, app: Application, seed: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        if rng is not None and seed is not None:
            raise ModelError("pass either seed or rng, not both")
        self._app = app
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._names = [p.name for p in app.processes]

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @property
    def app(self) -> Application:
        return self._app

    def sample_durations(self, max_attempts: int) -> Dict[str, List[int]]:
        """Uniform [BCET, WCET] draws for up to ``max_attempts`` attempts."""
        durations: Dict[str, List[int]] = {}
        for proc in self._app.processes:
            draws = self._rng.integers(
                proc.bcet, proc.wcet + 1, size=max_attempts
            )
            durations[proc.name] = [int(x) for x in draws]
        return durations

    def sample(self, faults: int = 0) -> ExecutionScenario:
        """One scenario with exactly ``faults`` faults.

        Each fault hits a process picked uniformly and independently,
        with replacement (see
        :func:`~repro.faults.scenarios.sample_scenario`), matching the
        simulation setup in §6 where scenarios for 0..3 faults are
        evaluated separately.
        """
        from repro.faults.scenarios import sample_scenario

        if faults > self._app.k:
            raise ModelError(
                f"{faults} faults exceed the application's budget k="
                f"{self._app.k}"
            )
        pattern = sample_scenario(self._names, faults, self._rng)
        durations = self.sample_durations(max_attempts=faults + 1)
        return ExecutionScenario(
            {n: tuple(v) for n, v in durations.items()}, pattern
        )

    def sample_many(self, count: int, faults: int = 0) -> List[ExecutionScenario]:
        """``count`` independent scenarios with exactly ``faults`` faults."""
        return [self.sample(faults) for _ in range(count)]
