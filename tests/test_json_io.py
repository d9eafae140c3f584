"""Round-trip tests for the JSON persistence layer."""

import json

import pytest

from repro.errors import SerializationError, TimingError
from repro.io.json_io import (
    application_from_dict,
    application_to_dict,
    load_json,
    process_from_dict,
    process_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.scheduling.ftss import ftss


class TestProcessRoundTrip:
    def test_hard(self, fig1_app):
        proc = fig1_app.process("P1")
        back = process_from_dict(process_to_dict(proc))
        assert back == proc

    def test_soft(self, fig1_app):
        proc = fig1_app.process("P2")
        back = process_from_dict(process_to_dict(proc))
        assert back.utility == proc.utility
        assert back.bcet == proc.bcet

    def test_missing_field(self):
        with pytest.raises(SerializationError):
            process_from_dict({"name": "P"})

    def test_fractional_application_fields_rejected(self, fig1_app):
        """The Fig. 1 document with a fractional µ, k and period is no
        application: each raises instead of being truncated."""
        from repro.errors import ModelError

        for field, value, error in (
            ("mu", 2.5, TimingError),
            ("k", 1.9, ModelError),
            ("period", 300.7, TimingError),
        ):
            document = application_to_dict(fig1_app)
            document[field] = value
            with pytest.raises(error, match="must be an integer"):
                application_from_dict(document)
        document = application_to_dict(fig1_app)
        document.update(mu=2.5, k=1.9, period=300.7)
        with pytest.raises(TimingError, match="period"):
            application_from_dict(document)

    def test_fractional_aet_rejected(self, fig1_app):
        """A document with a fractional AET is no application: lowering
        would truncate it, so the C core and the oracles would decide
        on different AETs."""
        document = application_to_dict(fig1_app)
        document["graph"]["processes"][0]["aet"] = 17.5
        with pytest.raises(TimingError, match="aet"):
            application_from_dict(document)


class TestApplicationRoundTrip:
    @pytest.mark.parametrize(
        "fixture", ["fig1_app", "fig8_app", "small_app", "cc_app"]
    )
    def test_round_trip(self, fixture, request):
        app = request.getfixturevalue(fixture)
        back = application_from_dict(application_to_dict(app))
        assert back.period == app.period
        assert back.k == app.k and back.mu == app.mu
        assert [p.name for p in back.processes] == [
            p.name for p in app.processes
        ]
        assert sorted(back.graph.edges) == sorted(app.graph.edges)
        for proc in app.processes:
            twin = back.process(proc.name)
            assert (twin.bcet, twin.aet, twin.wcet) == (
                proc.bcet,
                proc.aet,
                proc.wcet,
            )
            assert twin.kind == proc.kind

    def test_json_serializable(self, fig1_app):
        text = json.dumps(application_to_dict(fig1_app))
        back = application_from_dict(json.loads(text))
        assert back.period == fig1_app.period

    def test_version_check(self, fig1_app):
        data = application_to_dict(fig1_app)
        data["version"] = 999
        with pytest.raises(SerializationError):
            application_from_dict(data)


class TestScheduleRoundTrip:
    def test_round_trip(self, fig1_app):
        schedule = ftss(fig1_app)
        back = schedule_from_dict(fig1_app, schedule_to_dict(schedule))
        assert back.signature() == schedule.signature()
        assert back.start_time == schedule.start_time
        assert back.fault_budget == schedule.fault_budget
        assert back.expected_utility() == schedule.expected_utility()

    def test_tail_context_preserved(self, fig1_app):
        tail = ftss(
            fig1_app, fault_budget=1, start_time=30, prior_completed=["P1"]
        )
        back = schedule_from_dict(fig1_app, schedule_to_dict(tail))
        assert back.prior_completed == frozenset({"P1"})
        assert back.start_time == 30


class TestTreeRoundTrip:
    def test_round_trip(self, fig1_app):
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=6))
        back = tree_from_dict(fig1_app, tree_to_dict(tree))
        assert len(back) == len(tree)
        assert back.different_schedules() == tree.different_schedules()
        # Arc structure preserved node by node.
        for node in tree:
            twin = back.node(node.node_id)
            assert twin.schedule.signature() == node.schedule.signature()
            assert len(twin.arcs) == len(node.arcs)
            for a, b in zip(node.arcs, twin.arcs):
                assert (a.process, a.lo, a.hi, a.required_faults) == (
                    b.process,
                    b.lo,
                    b.hi,
                    b.required_faults,
                )

    def test_round_trip_behaviour_identical(self, fig1_app):
        """The reloaded tree drives the online scheduler identically."""
        from repro.faults.injection import ScenarioSampler
        from repro.runtime.online import simulate

        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=6))
        back = tree_from_dict(fig1_app, tree_to_dict(tree))
        sampler = ScenarioSampler(fig1_app, seed=17)
        for scenario in sampler.sample_many(25, faults=1):
            original = simulate(fig1_app, tree, scenario)
            reloaded = simulate(fig1_app, back, scenario)
            assert original.utility == reloaded.utility
            assert original.completion_times == reloaded.completion_times

    def test_file_round_trip(self, tmp_path, fig1_app):
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=4))
        path = str(tmp_path / "tree.json")
        save_json(tree_to_dict(tree), path)
        back = tree_from_dict(fig1_app, load_json(path))
        assert len(back) == len(tree)

    @pytest.mark.parametrize("role", ["parent", "target"])
    @pytest.mark.parametrize("bad", [999, [1]])
    def test_unknown_node_reference_named(self, fig1_app, role, bad):
        tree = ftqs(fig1_app, ftss(fig1_app), FTQSConfig(max_schedules=6))
        data = tree_to_dict(tree)
        if role == "parent":
            next(n for n in data["nodes"] if n["parent"] is not None)[
                "parent"
            ] = bad
        else:
            next(n for n in data["nodes"] if n["arcs"])["arcs"][0][
                "target"
            ] = bad
        with pytest.raises(SerializationError) as excinfo:
            tree_from_dict(fig1_app, data)
        assert f"unknown {role} node {bad!r}" in str(excinfo.value)

    def test_load_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SerializationError):
            load_json(str(path))


def assert_trees_identical(tree, back):
    """Full structural identity: nodes, schedules, arcs, intervals.

    Stricter than behavioural equivalence — this is what the tree
    store relies on: a reloaded tree must be indistinguishable from
    the freshly built one, entry for entry.
    """
    assert len(back) == len(tree)
    assert back.root_id == tree.root_id
    for node in tree:
        twin = back.node(node.node_id)
        assert twin.parent_id == node.parent_id
        assert twin.layer == node.layer
        assert twin.switch_process == node.switch_process
        assert twin.assumed_faults == node.assumed_faults
        schedule, mirror = node.schedule, twin.schedule
        assert mirror.entries == schedule.entries
        assert mirror.start_time == schedule.start_time
        assert mirror.fault_budget == schedule.fault_budget
        assert mirror.prior_completed == schedule.prior_completed
        assert mirror.prior_dropped == schedule.prior_dropped
        assert mirror.slack_sharing == schedule.slack_sharing
        assert len(twin.arcs) == len(node.arcs)
        for a, b in zip(node.arcs, twin.arcs):
            # (lo, hi) is the switching interval computed by interval
            # partitioning — integer-exact in the serialized form.
            assert (
                a.process,
                a.lo,
                a.hi,
                a.required_faults,
                a.target,
            ) == (b.process, b.lo, b.hi, b.required_faults, b.target)


class TestFastEngineTreeRoundTrip:
    """JSON fidelity for trees emitted by the *fast* synthesis engine.

    The pipeline's tree store serializes fast-engine trees and reloads
    them on later runs; its correctness rests on this round trip being
    the identity, so every structural detail is asserted — not just
    behaviour.
    """

    @pytest.mark.parametrize(
        "fixture, schedules",
        [("fig1_app", 6), ("fig8_app", 8), ("small_app", 8)],
    )
    def test_structural_identity(self, fixture, schedules, request):
        app = request.getfixturevalue(fixture)
        root = ftss(app)
        tree = ftqs(app, root, FTQSConfig(max_schedules=schedules))
        back = tree_from_dict(app, tree_to_dict(tree))
        assert_trees_identical(tree, back)

    def test_identity_survives_the_file_system(self, tmp_path, small_app):
        root = ftss(small_app)
        tree = ftqs(small_app, root, FTQSConfig(max_schedules=8))
        path = str(tmp_path / "fast_tree.json")
        save_json(tree_to_dict(tree), path)
        back = tree_from_dict(small_app, load_json(path))
        assert_trees_identical(tree, back)

    def test_fault_children_intervals_preserved(self, fig8_app):
        """Fault-conditioned arcs (required_faults > 0) round-trip."""
        root = ftss(fig8_app)
        tree = ftqs(
            fig8_app,
            root,
            FTQSConfig(max_schedules=8, max_fault_variants=2),
        )
        back = tree_from_dict(fig8_app, tree_to_dict(tree))
        assert_trees_identical(tree, back)
        conditioned = [
            arc
            for node in tree
            for arc in node.arcs
            if arc.required_faults > 0
        ]
        reloaded = [
            arc
            for node in back
            for arc in node.arcs
            if arc.required_faults > 0
        ]
        assert len(conditioned) == len(reloaded)
