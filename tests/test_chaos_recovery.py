"""Fault-tolerant execution under deterministic chaos.

The paper's contribution is schedules that survive faults; this suite
proves the *harness* survives its own: SIGKILLed and wedged pool
workers, flaky store transports, and runs killed between checkpoint
rows.  Every recovery path must end in outputs identical to an
undisturbed run — recovery that changes results would silently
invalidate the reproduction, so bit-identity is the acceptance bar
throughout (asserted via exact float/list equality and the golden
differential rows).
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict

import pytest

import test_pipeline_differential as differential
from repro.errors import RuntimeModelError
from repro.evaluation.experiments.fig9 import run_fig9
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.pipeline.chaos import ChaosKill, ChaosPlan, active
from repro.pipeline.checkpoint import ExperimentCheckpoint
from repro.runtime.engine.parallel import (
    TaskPool,
    pool_recovery,
    reset_pool_recovery,
)
from repro.scheduling.ftss import ftss


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


# ----------------------------------------------------------------------
# TaskPool crash recovery
# ----------------------------------------------------------------------
class TestPoolRecovery:
    def test_sigkilled_worker_is_respawned_and_task_redispatched(self):
        plan = ChaosPlan(kill_worker={1: 1})
        with active(plan), TaskPool(2) as pool:
            assert pool.map(_square, list(range(6))) == [
                0, 1, 4, 9, 16, 25,
            ]
        assert plan.kills_delivered == 1
        assert pool.recovery.worker_deaths == 1
        assert pool.recovery.respawns == 1
        assert pool.recovery.task_retries == 1
        assert pool.recovery.degraded_tasks == 0

    def test_task_exhausting_retries_falls_back_in_process(self):
        # Killed on every delivery: after the retry budget the parent
        # runs the task itself — degraded, warned, never aborted.
        plan = ChaosPlan(kill_worker={0: 99})
        with active(plan), pytest.warns(RuntimeWarning, match="in-process"):
            with TaskPool(2, task_retries=2) as pool:
                assert pool.map(_square, [7, 8]) == [49, 64]
        assert pool.recovery.degraded_tasks == 1
        assert pool.recovery.worker_deaths == 3  # initial + 2 retries

    def test_hung_worker_recovered_by_task_timeout(self):
        plan = ChaosPlan(hang_worker=frozenset({0}))
        with active(plan), TaskPool(2, task_timeout=0.5) as pool:
            assert pool.map(_square, [2, 3]) == [4, 9]
        assert pool.recovery.timeouts == 1
        assert pool.recovery.task_retries == 1

    def test_task_exception_propagates_and_pool_survives(self):
        with TaskPool(2) as pool:
            with pytest.raises(ValueError, match="boom on"):
                pool.map(_boom, [0, 1])
            # The pool is still usable for the next map.
            assert pool.map(_square, [5]) == [25]
        assert pool.recovery.worker_deaths == 0

    def test_close_and_terminate_idempotent_after_worker_crash(self):
        # The satellite: teardown after a SIGKILLed worker must not
        # raise or leak — close() twice, then terminate() again.
        plan = ChaosPlan(kill_worker={0: 99})
        with active(plan):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pool = TaskPool(2, task_retries=1)
                assert pool.map(_square, [3]) == [9]
        pool.close()
        pool.close()
        pool.terminate()
        with pytest.raises(RuntimeModelError, match="closed"):
            pool.map(_square, [1])

    def test_global_recovery_aggregates_across_pools(self):
        reset_pool_recovery()
        plan = ChaosPlan(kill_worker={0: 1})
        with active(plan), TaskPool(2) as pool:
            pool.map(_square, [1, 2])
        assert pool_recovery().worker_deaths == 1
        assert "worker death(s)" in pool_recovery().summary()
        reset_pool_recovery()
        assert not pool_recovery().any()


# ----------------------------------------------------------------------
# Evaluation bit-identity under worker faults
# ----------------------------------------------------------------------
class TestEvaluationBitIdentity:
    def _evaluate(self, app, plan_obj, jobs):
        spec = "kernel" if jobs == 1 else f"kernel@processes:{jobs}"
        with MonteCarloEvaluator(
            app, n_scenarios=24, fault_counts=[0, 1], seed=3,
            execution=spec,
        ) as evaluator:
            return evaluator.evaluate(plan_obj)

    def test_sigkilled_worker_recovery_is_bit_identical(self, fig1_app):
        """The acceptance bar: a SIGKILLed worker's shard is
        re-dispatched and the outcomes equal the undisturbed jobs=1
        run exactly — same floats, same order, same counts."""
        plan_obj = ftss(fig1_app)
        baseline = self._evaluate(fig1_app, plan_obj, jobs=1)
        chaos = ChaosPlan(kill_worker={0: 1}, kill_budget=1)
        with active(chaos):
            recovered = self._evaluate(fig1_app, plan_obj, jobs=2)
        assert chaos.kills_delivered == 1
        assert recovered == baseline  # dataclass equality: exact floats

    def test_forced_in_process_degradation_is_bit_identical(
        self, fig1_app
    ):
        plan_obj = ftss(fig1_app)
        baseline = self._evaluate(fig1_app, plan_obj, jobs=1)
        chaos = ChaosPlan(kill_worker={0: 99})
        with active(chaos), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            degraded = self._evaluate(fig1_app, plan_obj, jobs=2)
        assert degraded == baseline


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_record_lookup_round_trip_and_reuse_counters(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        value = {"plan": {"0": {"mean_utility": 0.1 + 0.2}}}
        with ExperimentCheckpoint(directory, experiment="unit") as ckpt:
            assert ckpt.lookup("k") is None
            ckpt.record("k", value)
            assert ckpt.journaled == 1
        with ExperimentCheckpoint(
            directory, experiment="unit", resume=True
        ) as ckpt:
            assert ckpt.completed == 1
            assert ckpt.lookup("k") == value  # floats exact via repr
            assert ckpt.reused == 1

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(RuntimeModelError, match="no checkpoint"):
            ExperimentCheckpoint(
                str(tmp_path / "none"), experiment="unit", resume=True
            )

    def test_resume_refuses_mismatched_fingerprint(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        ExperimentCheckpoint(
            directory, experiment="cc", config={"seed": 1}
        ).close()
        with pytest.raises(RuntimeModelError, match="fingerprint"):
            ExperimentCheckpoint(
                directory,
                experiment="cc",
                config={"seed": 2},
                resume=True,
            )

    def test_fingerprint_masks_routing_knobs(self, tmp_path):
        # The executor is result-neutral: a checkpoint written under
        # kernel@processes:4 resumes under the inline reference.
        directory = str(tmp_path / "ckpt")
        ExperimentCheckpoint(
            directory,
            experiment="cc",
            config={"seed": 1, "execution": "kernel@processes:4"},
        ).close()
        ExperimentCheckpoint(
            directory,
            experiment="cc",
            config={"seed": 1, "execution": "reference"},
            resume=True,
        ).close()

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        with ExperimentCheckpoint(directory, experiment="unit") as ckpt:
            ckpt.record("a", 1)
            ckpt.record("b", 2)
        journal = os.path.join(directory, "journal.jsonl")
        with open(journal, "a") as handle:
            handle.write('{"key": "c", "val')  # killed mid-write
        with ExperimentCheckpoint(
            directory, experiment="unit", resume=True
        ) as ckpt:
            assert ckpt.completed == 2  # everything before the tear
            assert ckpt.lookup("a") == 1

    def test_chaos_kill_fires_after_the_row_is_durable(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        plan = ChaosPlan(kill_run_after_rows=1)
        with active(plan):
            with ExperimentCheckpoint(
                directory, experiment="unit"
            ) as ckpt:
                with pytest.raises(ChaosKill):
                    ckpt.record("a", {"x": 1.5})
        with ExperimentCheckpoint(
            directory, experiment="unit", resume=True
        ) as ckpt:
            assert ckpt.lookup("a") == {"x": 1.5}  # it reached disk


def _lists(node):
    """Every list inside a decoded JSON document."""
    if isinstance(node, list):
        return [node]
    if isinstance(node, dict):
        return [found for value in node.values() for found in _lists(value)]
    return []


def _format_1(directory):
    """Rewrite a checkpoint directory the way format 1 wrote it: the
    manifest's format, and every journaled outcome with its
    per-scenario ``utilities`` list and no ``n_scenarios``."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["format"] = 1
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    journal = os.path.join(directory, "journal.jsonl")
    with open(journal) as handle:
        entries = [json.loads(line) for line in handle]
    with open(journal, "w") as handle:
        for entry in entries:
            for outcomes in entry["value"].values():
                for fields in outcomes.values():
                    fields["utilities"] = [0.5] * fields.pop("n_scenarios")
            handle.write(json.dumps(entry) + "\n")


class TestJournalFormat:
    def test_journaled_unit_holds_aggregates_only(self, tmp_path, fig1_app):
        """A journaled unit stores each outcome's aggregates and no
        list; decoding it gives every aggregate and ``n_scenarios`` of
        the live outcome, bit for bit, and no per-scenario array."""
        from repro.evaluation.montecarlo import AGGREGATES
        from repro.pipeline.checkpoint import JournalingEvaluator

        directory = str(tmp_path / "ckpt")
        plans = {"root": ftss(fig1_app)}

        def journaling(ckpt, factory):
            return JournalingEvaluator(
                ckpt, fig1_app, factory, n_scenarios=30, fault_counts=None,
                seed=3,
            )

        with ExperimentCheckpoint(directory, experiment="unit") as ckpt:
            with journaling(ckpt, lambda: MonteCarloEvaluator(
                fig1_app, n_scenarios=30, seed=3, execution="kernel"
            )) as evaluator:
                live = evaluator.compare(plans)
        with open(os.path.join(directory, "journal.jsonl")) as handle:
            (line,) = handle.read().splitlines()
        value = json.loads(line)["value"]
        assert _lists(value) == []
        assert all(
            sorted(fields) == sorted(AGGREGATES)
            for outcomes in value.values()
            for fields in outcomes.values()
        )

        def unused():
            raise AssertionError("a journal hit built the evaluator")

        with ExperimentCheckpoint(
            directory, experiment="unit", resume=True
        ) as ckpt:
            with journaling(ckpt, unused) as evaluator:
                decoded = evaluator.compare(plans)
            assert ckpt.reused == 1
        assert decoded.keys() == live.keys()
        for name, outcomes in live.items():
            assert decoded[name].keys() == outcomes.keys()
            for faults, outcome in outcomes.items():
                restored = decoded[name][faults]
                assert restored.utilities is None
                assert restored.n_scenarios == len(outcome.utilities) == 30
                for field in AGGREGATES:
                    ours, theirs = (
                        getattr(restored, field), getattr(outcome, field)
                    )
                    assert type(ours) is type(theirs), field
                    assert repr(ours) == repr(theirs), field

    def test_resume_refuses_a_format_1_directory(self, tmp_path):
        """A format-1 directory (per-scenario utilities in the journal)
        is refused before its fingerprint is even compared."""
        directory = str(tmp_path / "ckpt")
        with ExperimentCheckpoint(directory, experiment="unit") as ckpt:
            ckpt.record("k", {"plan": {"0": {
                "mean_utility": 1.5, "n_scenarios": 2, "deadline_misses": 0,
                "mean_switches": 0.0, "mean_faults": 0.0, "fallbacks": 0,
            }}})
        _format_1(directory)
        with pytest.raises(RuntimeModelError) as excinfo:
            ExperimentCheckpoint(directory, experiment="unit", resume=True)
        message = str(excinfo.value)
        assert message.startswith("cannot resume")
        assert directory in message
        assert "format 1" in message and "format 2" in message


class TestKilledSweepResumesByteIdentical:
    def test_fig9_killed_then_resumed_matches_golden(self, tmp_path):
        """The acceptance run: a fig9 sweep killed by chaos after two
        journaled units, resumed, reuses the journal and produces rows
        byte-identical to the pinned pre-refactor golden capture."""
        with open(differential.GOLDEN_PATH) as handle:
            golden = json.load(handle)["fig9"]
        directory = str(tmp_path / "ckpt")
        config = differential.FIG9

        plan = ChaosPlan(kill_run_after_rows=2)
        with active(plan), pytest.raises(ChaosKill):
            with ExperimentCheckpoint(
                directory, experiment="fig9", config=config
            ) as ckpt:
                run_fig9(config, checkpoint=ckpt)
        assert plan.rows_journaled == 2

        with ExperimentCheckpoint(
            directory, experiment="fig9", config=config, resume=True
        ) as ckpt:
            rows = run_fig9(config, checkpoint=ckpt)
            assert ckpt.reused >= 2  # the killed run's work was kept
        assert differential._normalize(
            [asdict(row) for row in rows]
        ) == golden


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
class TestCLI:
    def test_chaos_kill_resume_cycle_is_byte_identical(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        directory = str(tmp_path / "ckpt")
        assert main(["experiment", "cc"]) == 0
        clean = capsys.readouterr().out

        code = main([
            "experiment", "cc",
            "--checkpoint", directory, "--chaos", "kill-run@1",
        ])
        captured = capsys.readouterr()
        assert code == 75  # died as scripted, distinct exit code
        assert "chaos: run killed after 1 journaled row(s)" in captured.err
        assert "checkpoint: 1 unit(s) journaled" in captured.err

        assert main([
            "experiment", "cc", "--checkpoint", directory, "--resume",
        ]) == 0
        resumed = capsys.readouterr().out
        assert "checkpoint: 0 unit(s) journaled, 1 reused" in resumed
        # Identical rows, byte for byte, before the summary lines.
        assert resumed.split("synthesis:")[0] == clean.split("synthesis:")[0]

    def test_resume_refuses_a_format_1_directory(self, tmp_path, capsys):
        """``--resume`` on a directory an older version journaled in
        format 1 ends with one ``error: cannot resume`` line naming
        both formats and the directory, with no traceback."""
        from repro.cli import main

        directory = str(tmp_path / "ckpt")
        assert main([
            "experiment", "cc",
            "--checkpoint", directory, "--chaos", "kill-run@1",
        ]) == 75
        capsys.readouterr()
        _format_1(directory)
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "cc", "--checkpoint", directory, "--resume",
            ])
        message = str(excinfo.value)
        assert message.startswith("error: cannot resume")
        assert directory in message
        assert "format 1" in message and "format 2" in message
        assert "\n" not in message

    def test_worker_kill_chaos_reports_resilience_line(self, capsys):
        from repro.cli import main

        assert main(["experiment", "cc"]) == 0
        clean = capsys.readouterr().out
        assert main([
            "experiment", "cc", "--executor", "kernel@processes:2",
            "--chaos", "kill-worker@0,budget@1",
        ]) == 0
        out = capsys.readouterr().out
        assert "resilience: pool 1 worker death(s) / 1 respawn(s)" in out
        assert out.split("synthesis:")[0] == clean.split("synthesis:")[0]

    def test_keyboard_interrupt_exits_130_with_one_liner(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_cc", interrupted)
        assert cli.main(["experiment", "cc"]) == 130
        captured = capsys.readouterr()
        assert captured.err.startswith("interrupted:")
        assert "Traceback" not in captured.err

    def test_resume_without_checkpoint_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "cc", "--resume"])
        assert "--resume needs --checkpoint" in str(excinfo.value)

    @pytest.mark.parametrize("spec", [
        "explode@now",            # unknown token
        "kill-worker@",           # missing value
        "slow-request@2x",        # malformed seconds
        "store-fail@9-3",         # empty range
        "kill-run",               # no @value at all
    ])
    def test_bad_chaos_spec_dies_at_argparse_time(self, capsys, spec):
        """A chaos typo is a usage error (exit 2) before any experiment
        state — store, checkpoint, pools — has been touched."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "cc", "--chaos", spec])
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "--chaos" in err
        assert "chaos token" in err
        assert "Traceback" not in err

    def test_chaos_spec_parsed_once_into_the_namespace(self):
        from repro.cli import build_parser
        from repro.pipeline.chaos import ChaosPlan

        args = build_parser().parse_args([
            "experiment", "cc",
            "--chaos", "store-fail@2-4,slow-request@1x0.5,seed@7",
        ])
        assert isinstance(args.chaos, ChaosPlan)
        assert args.chaos.store_fail_ops == frozenset({2, 3, 4})
        assert args.chaos.slow_request == {1: 0.5}
        assert args.chaos.seed == 7

    def test_mismatched_resume_rejected_with_hint(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "ckpt")
        code = main([
            "experiment", "cc",
            "--checkpoint", directory, "--chaos", "kill-run@1",
        ])
        capsys.readouterr()
        assert code == 75
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "table1",
                "--checkpoint", directory, "--resume",
            ])
        message = str(excinfo.value)
        assert "refusing to mix results" in message
        assert directory in message
        # The wrong-experiment case names both experiments outright.
        assert "'cc'" in message and "'table1'" in message
        assert "\n" not in message.replace("error: ", "")

    def test_mismatched_workload_resume_names_the_field(
        self, tmp_path, capsys
    ):
        """Same experiment, different workload: the one-line error
        names the checkpoint directory and the exact masked config
        field(s) that differ — never a traceback."""
        from repro.cli import main

        directory = str(tmp_path / "ckpt")
        assert main([
            "experiment", "cc", "--checkpoint", directory,
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "cc", "--paper-scale",
                "--checkpoint", directory, "--resume",
            ])
        message = str(excinfo.value)
        assert message.startswith("error: cannot resume")
        assert directory in message
        assert "differing field(s):" in message
        assert "n_scenarios" in message  # the knob --paper-scale moves
        assert "checkpoint 300" in message and "this run 20000" in message

    def test_resume_missing_checkpoint_names_the_directory(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        directory = str(tmp_path / "never-created")
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "cc",
                "--checkpoint", directory, "--resume",
            ])
        message = str(excinfo.value)
        assert message.startswith("error: cannot resume")
        assert directory in message
        assert "run once with --checkpoint first" in message

    def test_resume_routing_knob_change_is_accepted(self, tmp_path, capsys):
        """The executor is masked out of the fingerprint: a checkpoint
        written under kernel@processes:2 resumes under the inline
        reference engine and reuses every journaled unit."""
        from repro.cli import main

        directory = str(tmp_path / "ckpt")
        assert main([
            "experiment", "cc", "--checkpoint", directory,
            "--executor", "kernel@processes:2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "experiment", "cc", "--checkpoint", directory, "--resume",
            "--executor", "reference",
        ]) == 0
        assert "1 reused" in capsys.readouterr().out
