"""Property tests for :class:`ScenarioBatch` and its sampler.

The engines' inputs must be *exactly* the per-scenario sampler's
outputs: :meth:`ScenarioBatch.draw` under seed ``s`` must yield the
arrays, and leave the RNG in the state, that the evaluator's original
per-scenario stream produces under ``s`` — every scenario's
``ScenarioSampler.sample_durations`` first, then ``sample_scenario``
per fault count in the caller's order.  The test rebuilds that stream
as its oracle.  Uses hypothesis when it is installed; otherwise the
same properties run over a seeded grid of randomized cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RuntimeModelError
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.faults.injection import (
    ExecutionScenario,
    ScenarioSampler,
    scenario_with_times,
)
from repro.faults.scenarios import sample_scenario
from repro.runtime.engine import ScenarioBatch
from repro.workloads.exec_times import TimingSpec
from repro.workloads.suite import WorkloadSpec, generate_application

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


#: BCET fraction floors: the paper's U[0, WCET], a mix in which some
#: processes have BCET == WCET (their draws consume no randomness), and
#: every process fixed.
BCET_FLOORS = (0.0, 0.9, 1.0)


def _app(n_processes: int, app_seed: int, bcet_floor: float):
    spec = WorkloadSpec(
        n_processes=n_processes,
        timing=TimingSpec(bcet_fraction_min=bcet_floor),
    )
    return generate_application(spec, seed=app_seed)


def _per_scenario_stream(app, count, fault_counts, seed):
    """The evaluator's scenario sets drawn one scenario at a time, and
    the sampler that drew them."""
    sampler = ScenarioSampler(app, seed=seed)
    names = [p.name for p in app.processes]
    durations = [
        {
            name: tuple(values)
            for name, values in sampler.sample_durations(
                max(fault_counts) + 1
            ).items()
        }
        for _ in range(count)
    ]
    sets = {}
    for faults in fault_counts:
        sets[faults] = [
            ExecutionScenario(d, sample_scenario(names, faults, sampler.rng))
            for d in durations
        ]
    return sets, sampler


def _check_draw_matches_stream(app, seed, count, fault_counts) -> None:
    reference, sampler = _per_scenario_stream(app, count, fault_counts, seed)
    rng = np.random.default_rng(seed)
    batches = ScenarioBatch.draw(app, count, fault_counts, rng)
    assert list(batches) == list(fault_counts)
    names = tuple(p.name for p in app.processes)
    width = max(fault_counts) + 1
    for faults, batch in batches.items():
        scenarios = reference[faults]
        assert batch.names == names
        assert batch.durations.dtype == batch.fault_counts.dtype == np.int64
        assert batch.durations.shape == (count, len(names), width)
        assert np.array_equal(
            batch.durations,
            [[s.durations[name] for name in names] for s in scenarios],
        )
        assert np.array_equal(
            batch.fault_counts,
            [[s.faults.failures_of(name) for name in names] for s in scenarios],
        )
        assert np.all(batch.total_faults() == faults)
        # The reference engine's view: the same scenario objects.
        assert list(batch) == scenarios
    # The RNG must land in the same state: the next draw agrees too.
    assert rng.integers(2**62) == sampler.rng.integers(2**62)


if HAVE_HYPOTHESIS:

    @st.composite
    def _cases(draw):
        app = _app(
            n_processes=draw(st.integers(min_value=1, max_value=14)),
            app_seed=draw(st.integers(min_value=0, max_value=10_000)),
            bcet_floor=draw(st.sampled_from(BCET_FLOORS)),
        )
        # Unsorted, single and above-budget counts all occur.
        fault_counts = draw(
            st.lists(
                st.integers(min_value=0, max_value=app.k + 2),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        return (
            app,
            draw(st.integers(min_value=0, max_value=2**31 - 1)),
            draw(st.integers(min_value=1, max_value=12)),
            fault_counts,
        )

    @settings(max_examples=40, deadline=None)
    @given(case=_cases())
    def test_sample_batch_byte_identical(case):
        _check_draw_matches_stream(*case)

else:  # seeded randomized fallback, same property

    @pytest.mark.parametrize("case", range(40))
    def test_sample_batch_byte_identical(case):
        rng = np.random.default_rng(1000 + case)
        app = _app(
            n_processes=int(rng.integers(1, 15)),
            app_seed=int(rng.integers(0, 10_001)),
            bcet_floor=BCET_FLOORS[case % len(BCET_FLOORS)],
        )
        n_counts = int(rng.integers(1, 5))
        fault_counts = [
            int(f) for f in rng.permutation(app.k + 3)[:n_counts]
        ]
        _check_draw_matches_stream(
            app,
            seed=int(rng.integers(0, 2**31 - 1)),
            count=int(rng.integers(1, 13)),
            fault_counts=fault_counts,
        )


def test_paired_fault_axes_share_duration_draws(fig1_app):
    """The i-th scenario of every fault count has identical durations
    (the evaluator's paired-axes coupling): every set reads one shared,
    read-only ``durations`` array."""
    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=15, seed=6)
    batches = evaluator.scenarios
    assert len(batches) >= 2
    shared = batches[0].durations
    assert shared.flags.writeable is False
    for faults, batch in batches.items():
        assert np.shares_memory(batch.durations, shared)
        assert batch.durations.shape == shared.shape
        assert batch.fault_counts.flags.writeable is False
        assert np.all(batch.total_faults() == faults)
    with pytest.raises(ValueError):
        shared[0, 0, 0] = 0


def test_sample_batch_total_faults(fig1_app):
    """A drawn batch has one row per scenario, one column per process,
    ``max(fault_counts) + 1`` attempt columns, and exactly ``f`` faults
    in every scenario of the set for fault count ``f``."""
    batches = ScenarioBatch.draw(
        fig1_app, 20, [1], np.random.default_rng(3)
    )
    batch = batches[1]
    assert batch.n_scenarios == len(batch) == 20
    assert batch.durations.shape[1] == len(fig1_app.processes)
    assert batch.max_attempts == 2
    assert np.all(batch.total_faults() == 1)


def test_batch_is_a_sequence_of_scenarios(fig1_app):
    """``len``, integer indexing (NumPy integers and negative indices
    included) and iteration all build the same scenario objects."""
    batch = MonteCarloEvaluator(
        fig1_app, n_scenarios=6, fault_counts=[1], seed=2
    ).scenarios[1]
    scenarios = list(batch)
    assert len(batch) == len(scenarios) == 6
    assert scenarios == [batch.scenario(i) for i in range(6)]
    assert batch[np.int64(3)] == scenarios[3]
    assert batch[-1] == scenarios[5]
    assert list(batch.rows(2, 4)) == scenarios[2:4]
    for index in (6, -7):
        with pytest.raises(IndexError):
            batch[index]
    with pytest.raises(TypeError):
        batch[1.0]


def test_from_scenarios_rejects_empty_list(fig1_app):
    with pytest.raises(RuntimeModelError):
        ScenarioBatch.from_scenarios(fig1_app, [])


def test_from_scenarios_rejects_missing_process(fig1_app):
    partial = scenario_with_times(
        fig1_app, {fig1_app.processes[0].name: fig1_app.processes[0].bcet}
    )
    with pytest.raises(RuntimeModelError):
        ScenarioBatch.from_scenarios(fig1_app, [partial])


def test_ragged_duration_lists_pad_with_last_value(fig1_app):
    """Mixed attempt counts pack by repeating the last value, the same
    clamping rule as ExecutionScenario.duration_of."""
    sampler = ScenarioSampler(fig1_app, seed=8)
    ragged = [sampler.sample(faults=0), sampler.sample(faults=1)]
    batch = ScenarioBatch.from_scenarios(fig1_app, ragged)
    assert batch.max_attempts == 2
    for p, name in enumerate(batch.names):
        assert batch.durations[0, p, 1] == ragged[0].duration_of(name, 1)
