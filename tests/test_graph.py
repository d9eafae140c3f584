"""Unit tests for the process graph substrate."""

import pytest

from repro.errors import GraphError
from repro.model.graph import ProcessGraph
from repro.model.process import hard_process, soft_process
from repro.utility.functions import ConstantUtility


def _soft(name):
    return soft_process(name, 1, 2, ConstantUtility(10))


def _diamond():
    """P1 -> {P2, P3} -> P4."""
    return ProcessGraph(
        [_soft("P1"), _soft("P2"), _soft("P3"), _soft("P4")],
        [("P1", "P2"), ("P1", "P3"), ("P2", "P4"), ("P3", "P4")],
        name="diamond",
    )


def test_basic_accessors():
    graph = _diamond()
    assert len(graph) == 4
    assert "P1" in graph and "P9" not in graph
    assert graph["P2"].name == "P2"
    assert sorted(graph.process_names) == ["P1", "P2", "P3", "P4"]
    assert ("P1", "P2") in graph.edges


def test_successors_predecessors():
    graph = _diamond()
    assert sorted(graph.successors("P1")) == ["P2", "P3"]
    assert sorted(graph.predecessors("P4")) == ["P2", "P3"]
    assert graph.predecessors("P1") == []


def test_sources_sinks_polar():
    graph = _diamond()
    assert graph.sources() == ["P1"]
    assert graph.sinks() == ["P4"]
    assert graph.is_polar()


def test_non_polar_detection():
    graph = ProcessGraph([_soft("A"), _soft("B")], [])
    assert not graph.is_polar()


def test_polarized_adds_dummies():
    graph = ProcessGraph([_soft("A"), _soft("B")], [], period=100)
    polar = graph.polarized()
    assert polar.is_polar()
    assert len(polar) == 4
    assert set(polar.successors("__source__")) == {"A", "B"}
    assert set(polar.predecessors("__sink__")) == {"A", "B"}


def test_polarized_name_collision_rejected():
    graph = ProcessGraph([_soft("__source__")], [])
    with pytest.raises(GraphError):
        graph.polarized()


def test_topological_order_valid():
    graph = _diamond()
    order = graph.topological_order()
    position = {n: i for i, n in enumerate(order)}
    for src, dst in graph.edges:
        assert position[src] < position[dst]


def test_cycle_rejected_at_construction():
    with pytest.raises(GraphError):
        ProcessGraph(
            [_soft("A"), _soft("B")], [("A", "B"), ("B", "A")]
        )


def test_cycle_closing_edge_rejected():
    with pytest.raises(GraphError):
        ProcessGraph(
            [_soft("A"), _soft("B"), _soft("C")],
            [("A", "B"), ("B", "C"), ("C", "A")],
        )


def test_graph_has_no_add_edge():
    """A process graph is fixed at construction: edges go through the
    constructor, which checks them all."""
    graph = ProcessGraph([_soft("A"), _soft("B")], [("A", "B")])
    assert not hasattr(graph, "add_edge")


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        ProcessGraph([_soft("A")], [("A", "A")])


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        ProcessGraph([_soft("A"), _soft("B")], [("A", "B"), ("A", "B")])


def test_duplicate_process_rejected():
    with pytest.raises(GraphError):
        ProcessGraph([_soft("A"), _soft("A")], [])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(GraphError):
        ProcessGraph([_soft("A")], [("A", "Z")])


def test_ancestors_descendants():
    graph = _diamond()
    assert graph.ancestors("P4") == {"P1", "P2", "P3"}
    assert graph.descendants("P1") == {"P2", "P3", "P4"}
    assert graph.ancestors("P1") == set()


def test_hard_soft_partition():
    graph = ProcessGraph(
        [hard_process("H", 1, 2, 10), _soft("S")], [("H", "S")]
    )
    assert [p.name for p in graph.hard_processes()] == ["H"]
    assert [p.name for p in graph.soft_processes()] == ["S"]


def test_subgraph():
    graph = _diamond()
    sub = graph.subgraph(["P1", "P2", "P4"])
    assert len(sub) == 3
    assert ("P1", "P2") in sub.edges
    assert ("P2", "P4") in sub.edges
    assert ("P3", "P4") not in [tuple(e) for e in sub.edges]


def test_subgraph_unknown_name_rejected():
    with pytest.raises(GraphError):
        _diamond().subgraph(["P1", "nope"])


def test_relabelled():
    graph = _diamond()
    renamed = graph.relabelled({"P1": "Q1"})
    assert "Q1" in renamed and "P1" not in renamed
    assert sorted(renamed.successors("Q1")) == ["P2", "P3"]
