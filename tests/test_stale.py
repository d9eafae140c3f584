"""Stale-value coefficient tests — the §2.1 formula and its worked
examples."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ModelError
from repro.model.graph import ProcessGraph
from repro.model.process import hard_process, soft_process
from repro.utility.functions import ConstantUtility
from repro.utility.stale import (
    degraded_utility,
    stale_coefficient,
    stale_coefficients,
)


def _soft(name):
    return soft_process(name, 1, 2, ConstantUtility(10))


def _chain_graph():
    """P1 -> P3, P2 -> P3, P3 -> P4 (the paper's §2.1 example)."""
    return ProcessGraph(
        [_soft("P1"), _soft("P2"), _soft("P3"), _soft("P4")],
        [("P1", "P3"), ("P2", "P3"), ("P3", "P4")],
    )


def test_paper_example_alpha3_is_two_thirds():
    # P1 dropped, P2 and P3 executed: α3 = (1 + 0 + 1) / (1 + 2) = 2/3.
    graph = _chain_graph()
    assert stale_coefficient(graph, "P3", dropped=["P1"]) == pytest.approx(2 / 3)


def test_paper_example_alpha4_is_five_sixths():
    # P4, sole successor of P3: α4 = (1 + 2/3) / (1 + 1) = 5/6.
    graph = _chain_graph()
    assert stale_coefficient(graph, "P4", dropped=["P1"]) == pytest.approx(5 / 6)


def test_no_drops_gives_all_ones():
    graph = _chain_graph()
    alphas = stale_coefficients(graph, dropped=[])
    assert all(a == 1.0 for a in alphas.values())


def test_dropped_process_has_zero_alpha():
    graph = _chain_graph()
    assert stale_coefficient(graph, "P1", dropped=["P1"]) == 0.0


def test_source_process_alpha_is_one():
    graph = _chain_graph()
    assert stale_coefficient(graph, "P2", dropped=["P1"]) == 1.0


def test_hard_predecessor_counts_as_fresh():
    graph = ProcessGraph(
        [hard_process("H", 1, 2, 10), _soft("S")],
        [("H", "S")],
    )
    assert stale_coefficient(graph, "S", dropped=[]) == 1.0


def test_dropping_hard_process_rejected():
    graph = ProcessGraph(
        [hard_process("H", 1, 2, 10), _soft("S")],
        [("H", "S")],
    )
    with pytest.raises(ModelError):
        stale_coefficients(graph, dropped=["H"])


def test_unknown_dropped_name_rejected():
    graph = _chain_graph()
    with pytest.raises(ModelError):
        stale_coefficients(graph, dropped=["nope"])


def test_degraded_utility_paper_arithmetic():
    graph = _chain_graph()
    # All soft utilities are constant 10; P1 dropped.
    value = degraded_utility(
        graph,
        completion_times={"P2": 5, "P3": 9, "P4": 13},
        dropped=["P1"],
    )
    assert value == pytest.approx(10 + (2 / 3) * 10 + (5 / 6) * 10)


def test_degraded_utility_rejects_overlap():
    graph = _chain_graph()
    with pytest.raises(ModelError):
        degraded_utility(graph, {"P1": 5}, dropped=["P1"])


def test_degraded_utility_rejects_missing_times():
    graph = _chain_graph()
    with pytest.raises(ModelError):
        degraded_utility(graph, {"P2": 5}, dropped=["P1"])


@given(drop_mask=st.lists(st.booleans(), min_size=4, max_size=4))
def test_alphas_always_in_unit_interval(drop_mask):
    graph = _chain_graph()
    names = ["P1", "P2", "P3", "P4"]
    dropped = [n for n, d in zip(names, drop_mask) if d]
    alphas = stale_coefficients(graph, dropped)
    assert all(0.0 <= a <= 1.0 for a in alphas.values())
    for name in dropped:
        assert alphas[name] == 0.0


@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_alpha_propagation_monotone(n, seed):
    """Dropping more processes never increases any coefficient."""
    import numpy as np

    rng = np.random.default_rng(seed)
    procs = [_soft(f"P{i}") for i in range(n)]
    edges = [
        (f"P{i}", f"P{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    graph = ProcessGraph(procs, edges)
    names = [p.name for p in procs]
    smaller = [nm for nm in names[: n // 2] if rng.random() < 0.5]
    larger = smaller + [names[-1]] if names[-1] not in smaller else smaller
    a_small = stale_coefficients(graph, smaller)
    a_large = stale_coefficients(graph, larger)
    for name in names:
        assert a_large[name] <= a_small[name] + 1e-12


def test_predecessor_alphas_add_left_to_right():
    """Y's predecessor alphas 1, 1/3, 1 add up to 2.333333333333333
    left to right but to 2.3333333333333335 exactly rounded, which is
    what Python 3.12's compensated ``sum()`` returns; the oracle and
    the compiled context both add left to right, like the C core, on
    every Python version."""
    from repro.model.application import Application
    from repro.scheduling.compiled import SchedulingContext

    graph = ProcessGraph(
        [hard_process("A", 1, 2, 100), hard_process("B", 1, 2, 100),
         _soft("S1"), _soft("S2"), _soft("X"), _soft("Y")],
        [("S1", "X"), ("S2", "X"), ("A", "Y"), ("X", "Y"), ("B", "Y")],
    )
    assert graph.predecessors("Y") == ["A", "X", "B"]
    assert (1.0 + 1.0 / 3.0) + 1.0 == 2.333333333333333
    assert math.fsum([1.0, 1.0 / 3.0, 1.0]) == 2.3333333333333335
    alpha_y = (1.0 + 2.333333333333333) / 4.0
    dropped = ["S1", "S2"]
    assert stale_coefficients(graph, dropped)["Y"] == alpha_y
    ctx = SchedulingContext(Application(graph, period=100, k=1, mu=1))
    assert ctx.alphas(ctx.mask(dropped))[ctx.pid["Y"]] == alpha_y
