"""The unified ExecutionConfig API: the one way to route evaluation.

Pins the contract of :mod:`repro.execution`: the
``ENGINE[@MODE[:WORKERS]]`` spec grammar round-trips, every malformed
spec fails with the one-line enumeration of valid engines *and* modes,
every entry point defaults to the one :data:`DEFAULT_ENGINE`, the
retired ``batched`` engine fails like any unknown engine, and the
retired ``engine=``/``jobs=`` keywords and ``--engine``/``--jobs``
flags fail loudly — a :class:`TypeError` in the evaluator and the
experiment runner, a usage error (exit 2) in the CLI.
"""

from __future__ import annotations

import pytest

from repro.errors import RuntimeModelError
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.execution import (
    DEFAULT_ENGINE,
    ENGINES,
    MODES,
    ExecutionConfig,
    choices_line,
)
from repro.scheduling.ftss import ftss

CHOICES = (
    "valid engines: reference, kernel; "
    "valid modes: inline, processes, threads"
)


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
class TestSpecGrammar:
    @pytest.mark.parametrize(
        "spec, engine, mode, workers",
        [
            ("reference", "reference", "inline", 1),
            ("kernel", "kernel", "inline", 1),
            ("kernel@threads:8", "kernel", "threads", 8),
            ("kernel@processes:4", "kernel", "processes", 4),
            ("reference@processes", "reference", "processes", 1),
            ("  kernel@threads:2  ", "kernel", "threads", 2),
        ],
    )
    def test_parse(self, spec, engine, mode, workers):
        config = ExecutionConfig.parse(spec)
        assert (config.engine, config.mode, config.workers) == (
            engine, mode, workers
        )

    @pytest.mark.parametrize(
        "spec", ["reference", "kernel@threads:8", "kernel@processes:4"]
    )
    def test_spec_round_trips(self, spec):
        assert ExecutionConfig.parse(spec).spec() == spec

    @pytest.mark.parametrize("spec", ["batched", "batched@processes:2"])
    def test_retired_batched_engine_rejected(self, spec):
        assert ENGINES == ("reference", "kernel")
        with pytest.raises(RuntimeModelError, match="unknown engine") as exc:
            ExecutionConfig.parse(spec)
        assert CHOICES in str(exc.value)
        with pytest.raises(RuntimeModelError, match="unknown engine"):
            ExecutionConfig(engine="batched")

    def test_choices_line_matches_tuples(self):
        assert choices_line() == CHOICES
        for engine in ENGINES:
            assert engine in CHOICES
        for mode in MODES:
            assert mode in CHOICES

    @pytest.mark.parametrize(
        "spec",
        [
            "warp",                  # unknown engine
            "kernel@fibers:2",       # unknown mode
            "kernel@threads:0",      # non-positive workers
            "batched:4",             # engine "batched:4"
            "",                      # empty
        ],
    )
    def test_bad_specs_enumerate_choices_in_one_line(self, spec):
        with pytest.raises(RuntimeModelError) as excinfo:
            ExecutionConfig.parse(spec)
        message = str(excinfo.value)
        assert CHOICES in message
        assert "\n" not in message

    def test_non_integer_worker_count(self):
        with pytest.raises(RuntimeModelError) as excinfo:
            ExecutionConfig.parse("kernel@threads:many")
        assert "'many' is not an integer" in str(excinfo.value)

    def test_inline_is_single_worker(self):
        with pytest.raises(RuntimeModelError) as excinfo:
            ExecutionConfig(engine="kernel", mode="inline", workers=4)
        assert "@processes:4" in str(excinfo.value)

    def test_hashable_and_cache_key_semantics(self):
        a = ExecutionConfig.parse("kernel@threads:4")
        b = ExecutionConfig.parse("kernel@threads:4")
        c = ExecutionConfig.parse("kernel@threads:8")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_coerce(self):
        config = ExecutionConfig.parse("kernel@threads:2")
        assert ExecutionConfig.coerce(config) is config
        assert ExecutionConfig.coerce("kernel@threads:2") == config
        assert ExecutionConfig.coerce(None) == ExecutionConfig()
        with pytest.raises(RuntimeModelError):
            ExecutionConfig.coerce(4)


# ----------------------------------------------------------------------
# Evaluator integration
# ----------------------------------------------------------------------
class TestEvaluatorIntegration:
    def test_default_execution_is_reference_inline(self, fig1_app):
        evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=5)
        assert evaluator.execution.spec() == "reference"
        assert not hasattr(evaluator, "engine")
        assert not hasattr(evaluator, "jobs")

    def test_constructor_rejects_removed_keywords(self, fig1_app):
        with pytest.raises(TypeError, match="engine"):
            MonteCarloEvaluator(fig1_app, n_scenarios=5, engine="kernel")
        with pytest.raises(TypeError, match="jobs"):
            MonteCarloEvaluator(fig1_app, n_scenarios=5, jobs=2)

    def test_evaluate_rejects_removed_keywords(self, fig1_app):
        with MonteCarloEvaluator(
            fig1_app, n_scenarios=5, fault_counts=[0]
        ) as evaluator:
            with pytest.raises(TypeError, match="jobs"):
                evaluator.evaluate(ftss(fig1_app), jobs=2)
            with pytest.raises(TypeError, match="engine"):
                evaluator.evaluate(ftss(fig1_app), engine="kernel")
            assert not hasattr(evaluator, "parallel")

    def test_evaluate_rejects_mixing_new_and_legacy(self, fig1_app):
        with MonteCarloEvaluator(
            fig1_app, n_scenarios=5, fault_counts=[0]
        ) as evaluator:
            with pytest.raises(TypeError):
                evaluator.evaluate(
                    ftss(fig1_app), execution="kernel", jobs=2
                )

    def test_runner_rejects_removed_keywords(self):
        from repro.pipeline.runner import ExperimentRunner

        assert ExperimentRunner().execution.spec() == DEFAULT_ENGINE
        assert ExperimentRunner(
            execution="kernel@processes:2"
        ).execution.spec() == "kernel@processes:2"
        with pytest.raises(TypeError):
            ExperimentRunner(engine="kernel", jobs=2)

    def test_every_entry_point_defaults_to_one_engine(self):
        """``ExecutionConfig``, the runner, the five experiment
        configs, ``synthesis_report``, the CLI and the service config
        all resolve to :data:`DEFAULT_ENGINE`, inline."""
        import inspect

        from repro.analysis.report import synthesis_report
        from repro.cli import build_parser
        from repro.evaluation.experiments import (
            AblationConfig,
            CCConfig,
            Fig9Config,
            SweepConfig,
            Table1Config,
        )
        from repro.pipeline.runner import ExperimentRunner
        from repro.service import ServiceConfig

        assert DEFAULT_ENGINE == "kernel"
        default = ExecutionConfig(engine=DEFAULT_ENGINE)
        routed = [
            ExecutionConfig(),
            ExperimentRunner.DEFAULT_EXECUTION,
            ServiceConfig().execution,
            inspect.signature(synthesis_report)
            .parameters["execution"].default,
        ]
        routed += [
            config().execution
            for config in (
                AblationConfig, CCConfig, Fig9Config, SweepConfig,
                Table1Config,
            )
        ]
        parser = build_parser()
        for argv in (
            ["experiment", "cc"],
            ["serve"],
            ["simulate", "app.json", "tree.json"],
            ["report", "app.json"],
        ):
            routed.append(parser.parse_args(argv).executor)
        for value in routed:
            assert ExecutionConfig.coerce(value) == default, value


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
@pytest.fixture
def app_and_tree(tmp_path, fig1_app):
    from repro.cli import main
    from repro.io.json_io import application_to_dict, save_json

    app_path = str(tmp_path / "app.json")
    save_json(application_to_dict(fig1_app), app_path)
    assert main(["schedule", app_path, "--schedules", "4"]) == 0
    return app_path, app_path.replace(".json", ".tree.json")


class TestCLI:
    def test_executor_spec_routes_simulate(self, app_and_tree, capsys):
        from repro.cli import main

        app_path, tree_path = app_and_tree
        capsys.readouterr()
        assert main(
            [
                "simulate", app_path, tree_path, "--scenarios", "20",
                "--executor", "kernel@processes:2",
            ]
        ) == 0
        assert "0 faults" in capsys.readouterr().out

    def test_bad_executor_spec_exits_2_with_choices(
        self, app_and_tree, capsys
    ):
        from repro.cli import main

        app_path, tree_path = app_and_tree
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "simulate", app_path, tree_path,
                    "--executor", "warp@fibers:2",
                ]
            )
        assert excinfo.value.code == 2
        assert CHOICES in capsys.readouterr().err

    def test_batched_executor_exits_2(self, app_and_tree, capsys):
        from repro.cli import main

        app_path, tree_path = app_and_tree
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", app_path, tree_path, "--executor", "batched"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'batched'" in err
        assert CHOICES in err

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "batched"], ["--jobs", "2"]],
        ids=["engine", "jobs"],
    )
    def test_removed_flags_exit_2(self, app_and_tree, capsys, flags):
        from repro.cli import main

        app_path, tree_path = app_and_tree
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", app_path, tree_path, *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in (
            capsys.readouterr().err
        )

    def test_executor_conflicts_with_aliases(self, app_and_tree, capsys):
        from repro.cli import main

        app_path, tree_path = app_and_tree
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "simulate", app_path, tree_path,
                    "--executor", "kernel@threads:2",
                    "--jobs", "4",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --jobs 4" in err
