"""Execution-time assignment for generated workloads (paper §6).

The paper's setup: worst-case execution times uniformly varied between
10 and 100 ms, best-case execution times between 0 ms and the WCET,
completion times uniformly distributed in [BCET, WCET] (so the AET is
their midpoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class TimingSpec:
    """Parameters of the execution-time distribution."""

    wcet_min: int = 10
    wcet_max: int = 100
    bcet_fraction_min: float = 0.0
    bcet_fraction_max: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.wcet_min <= self.wcet_max:
            raise ModelError("need 0 < wcet_min <= wcet_max")
        if not (
            0.0 <= self.bcet_fraction_min <= self.bcet_fraction_max <= 1.0
        ):
            raise ModelError("bcet fractions must satisfy 0 <= lo <= hi <= 1")


DEFAULT_TIMING = TimingSpec()


def draw_execution_times(
    node_ids: Sequence[int],
    rng: np.random.Generator,
    spec: TimingSpec = DEFAULT_TIMING,
) -> Dict[int, Tuple[int, int]]:
    """Draw (BCET, WCET) for every node per the paper's distribution.

    WCET ~ U[wcet_min, wcet_max]; BCET ~ U[0, WCET] (restricted by the
    fraction bounds), with BCET at least 1 tick so a process always
    takes time.
    """
    times: Dict[int, Tuple[int, int]] = {}
    for node in node_ids:
        wcet = int(rng.integers(spec.wcet_min, spec.wcet_max + 1))
        lo = spec.bcet_fraction_min * wcet
        hi = spec.bcet_fraction_max * wcet
        bcet = int(rng.integers(int(np.floor(lo)), int(np.floor(hi)) + 1))
        bcet = max(1, min(bcet, wcet))
        times[node] = (bcet, wcet)
    return times
