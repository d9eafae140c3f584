"""Enumeration and sampling of fault scenarios.

The number of distinct fault scenarios grows exponentially with k and
the number of processes (paper §3), which is exactly why the quasi-
static tree must be pruned.  For testing and exhaustive verification of
small applications we still enumerate them; for the Monte-Carlo
evaluation we sample scenarios with a fixed total fault count, matching
the paper's "no faults / 1 / 2 / 3 faults" experiment axes.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.faults.model import FaultScenario


def enumerate_scenarios(
    process_names: Sequence[str],
    k: int,
    exact: Optional[int] = None,
) -> Iterator[FaultScenario]:
    """Yield every fault scenario with at most (or exactly) ``f`` faults.

    Parameters
    ----------
    process_names:
        Processes that can be hit.
    k:
        Fault budget; scenarios with up to ``k`` faults are produced.
    exact:
        When given, only scenarios with exactly this many faults.

    Faults hitting the same process are consecutive failed attempts,
    so a scenario is fully described by a multiset of processes —
    we enumerate combinations with replacement.
    """
    if k < 0:
        raise ModelError(f"fault budget must be non-negative, got {k}")
    if exact is not None and not 0 <= exact <= k:
        raise ModelError(f"exact fault count {exact} outside [0, {k}]")
    counts = [exact] if exact is not None else list(range(k + 1))
    for total in counts:
        if total == 0:
            yield FaultScenario.none()
            continue
        for combo in combinations_with_replacement(process_names, total):
            hits = {}
            for name in combo:
                hits[name] = hits.get(name, 0) + 1
            yield FaultScenario.of(hits)


def count_scenarios(n_processes: int, k: int) -> int:
    """Number of scenarios with at most k faults over n processes.

    Σ_{f=0..k} C(n + f - 1, f); useful to demonstrate the exponential
    blow-up motivating quasi-static pruning.
    """
    from math import comb

    return sum(comb(n_processes + f - 1, f) for f in range(k + 1))


def sample_scenario(
    process_names: Sequence[str],
    faults: int,
    rng: np.random.Generator,
) -> FaultScenario:
    """Sample a scenario with exactly ``faults`` faults.

    Makes ``faults`` independent uniform picks of a process, with
    replacement; a process picked ``c`` times fails its first ``c``
    attempts.  The resulting multisets are *not* uniform: with ``P``
    processes, {A, A} has probability 1/P² and {A, B} 2/P².
    """
    if faults < 0:
        raise ModelError(f"fault count must be non-negative, got {faults}")
    if faults == 0:
        return FaultScenario.none()
    if not process_names:
        raise ModelError("cannot place faults: no processes")
    picks = rng.choice(len(process_names), size=faults, replace=True)
    hits = {}
    for idx in picks:
        name = process_names[int(idx)]
        hits[name] = hits.get(name, 0) + 1
    return FaultScenario.of(hits)


def sample_scenarios(
    process_names: Sequence[str],
    faults: int,
    count: int,
    rng: np.random.Generator,
) -> List[FaultScenario]:
    """Sample ``count`` independent scenarios with exactly ``faults``
    faults each."""
    return [sample_scenario(process_names, faults, rng) for _ in range(count)]
