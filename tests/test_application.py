"""Unit tests for the application model and multi-rate merging."""

import pytest

from repro.errors import ModelError, TimingError
from repro.model.application import Application, application_from_graphs
from repro.model.graph import ProcessGraph
from repro.model.hypergraph import hyperperiod, merge_hyperperiod
from repro.model.process import hard_process, soft_process
from repro.utility.functions import ConstantUtility, StepUtility


def _soft(name, bcet=10, wcet=20, value=10):
    return soft_process(name, bcet, wcet, ConstantUtility(value))


def _simple_app(period=200, k=1, mu=5):
    graph = ProcessGraph(
        [hard_process("H", 10, 30, 150), _soft("S")],
        [("H", "S")],
        period=period,
    )
    return Application(graph, period=period, k=k, mu=mu)


def test_accessors():
    app = _simple_app()
    assert len(app) == 2
    assert app.process("H").is_hard
    assert [p.name for p in app.hard] == ["H"]
    assert [p.name for p in app.soft] == ["S"]


def test_recovery_overhead_global_and_override():
    graph = ProcessGraph(
        [
            hard_process("H", 10, 30, 150, recovery_overhead=3),
            _soft("S"),
        ],
        [],
        period=200,
    )
    app = Application(graph, period=200, k=1, mu=5)
    assert app.recovery_overhead("H") == 3
    assert app.recovery_overhead("S") == 5
    assert app.recovery_need("H") == 33
    assert app.recovery_need("S") == 25


def test_max_utility_sums_suprema():
    graph = ProcessGraph(
        [_soft("A", value=10), _soft("B", value=30)], [], period=100
    )
    app = Application(graph, period=100, k=0, mu=0)
    assert app.max_utility() == 40.0


def test_worst_case_load():
    app = _simple_app(k=1, mu=5)
    # WCETs 30 + 20, worst recovery need = 35 (H), k = 1.
    assert app.worst_case_load() == 50 + 35


def test_deadline_beyond_period_rejected():
    graph = ProcessGraph(
        [hard_process("H", 10, 30, 400)], [], period=300
    )
    with pytest.raises(TimingError):
        Application(graph, period=300, k=1, mu=5)


def test_invalid_parameters_rejected():
    graph = ProcessGraph([_soft("S")], [], period=100)
    with pytest.raises(TimingError):
        Application(graph, period=0, k=1, mu=5)
    with pytest.raises(ModelError):
        Application(graph, period=100, k=-1, mu=5)
    with pytest.raises(TimingError):
        Application(graph, period=100, k=1, mu=-5)


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("period", 300.7, TimingError),
        ("period", 200.0, TimingError),
        ("period", True, TimingError),
        ("k", 1.9, ModelError),
        ("k", True, ModelError),
        ("mu", 2.5, TimingError),
        ("mu", False, TimingError),
    ],
)
def test_non_integer_parameters_rejected(field, value, error):
    """A fractional, float or bool period, k or µ raises instead of
    being truncated to an integer."""
    graph = ProcessGraph([_soft("S")], [], period=200)
    params = dict(period=200, k=1, mu=5)
    params[field] = value
    with pytest.raises(error, match="must be an integer"):
        Application(graph, **params)


def test_numpy_integer_parameters_accepted():
    np = pytest.importorskip("numpy")
    graph = ProcessGraph([_soft("S")], [], period=200)
    app = Application(
        graph, period=np.int64(200), k=np.int32(1), mu=np.int16(5)
    )
    assert (app.period, app.k, app.mu) == (200, 1, 5)
    assert all(type(v) is int for v in (app.period, app.k, app.mu))


def test_application_is_immutable():
    """Attributes cannot be assigned or deleted after construction, so
    what is derived from an application once stays valid."""
    app = _simple_app()
    for name, value in (("k", 2), ("period", 400), ("mu", 1),
                        ("graph", app.graph), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(app, name, value)
    with pytest.raises(AttributeError, match="immutable"):
        del app.k
    assert (app.period, app.k, app.mu) == (200, 1, 5)


def test_empty_graph_rejected():
    graph = ProcessGraph([], [], period=100)
    with pytest.raises(ModelError):
        Application(graph, period=100, k=0, mu=0)


class TestHyperperiod:
    def test_lcm(self):
        assert hyperperiod([100, 150]) == 300
        assert hyperperiod([30]) == 30

    def test_invalid(self):
        with pytest.raises(ModelError):
            hyperperiod([])
        with pytest.raises(TimingError):
            hyperperiod([0, 10])

    def test_merge_two_rates(self):
        g1 = ProcessGraph(
            [hard_process("H", 5, 10, 90)], [], name="G1", period=100
        )
        g2 = ProcessGraph([_soft("S", 5, 10)], [], name="G2", period=50)
        merged, hyper = merge_hyperperiod([g1, g2])
        assert hyper == 100
        # G1 instantiated once, G2 twice.
        assert "H#0" in merged
        assert "S#0" in merged and "S#1" in merged
        assert len(merged) == 3
        # Second instance is chained behind the first.
        assert ("S#0", "S#1") in merged.edges

    def test_merge_shifts_deadlines(self):
        g = ProcessGraph(
            [hard_process("H", 5, 10, 40)], [], name="G", period=50
        )
        other = ProcessGraph(
            [_soft("S", 5, 10)], [], name="O", period=100
        )
        merged, hyper = merge_hyperperiod([g, other])
        assert hyper == 100
        assert merged["H#0"].deadline == 40
        assert merged["H#1"].deadline == 90

    def test_merge_shifts_utilities(self):
        g = ProcessGraph(
            [
                soft_process(
                    "S", 5, 10, StepUtility(40, [(30, 0)])
                )
            ],
            [],
            name="G",
            period=50,
        )
        anchor = ProcessGraph(
            [_soft("A", 5, 10)], [], name="A", period=100
        )
        merged, _ = merge_hyperperiod([g, anchor])
        second = merged["S#1"]
        # Released at 50: full value until 80, zero after.
        assert second.utility_at(80) == 40
        assert second.utility_at(81) == 0

    def test_duplicate_graph_names_rejected(self):
        g1 = ProcessGraph([_soft("S")], [], name="G", period=50)
        g2 = ProcessGraph([_soft("T")], [], name="G", period=100)
        with pytest.raises(ModelError):
            merge_hyperperiod([g1, g2])

    def test_application_from_graphs_single(self):
        g = ProcessGraph(
            [hard_process("H", 5, 10, 90)], [], name="G", period=100
        )
        app = application_from_graphs([g], k=1, mu=2)
        assert app.period == 100
        assert "H" in app.graph

    def test_application_from_graphs_multi(self):
        g1 = ProcessGraph(
            [hard_process("H", 5, 10, 90)], [], name="G1", period=100
        )
        g2 = ProcessGraph([_soft("S", 5, 10)], [], name="G2", period=50)
        app = application_from_graphs([g1, g2], k=1, mu=2)
        assert app.period == 100
        assert len(app) == 3

    def test_missing_period_rejected(self):
        g = ProcessGraph([_soft("S")], [], name="G")
        with pytest.raises(TimingError):
            application_from_graphs([g], k=0, mu=0)
