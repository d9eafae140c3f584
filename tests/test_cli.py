"""CLI smoke tests via the main() entry point."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io.json_io import application_to_dict, save_json


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["experiment", "cc"])
    assert args.name == "cc"


def test_demo_runs(capsys):
    assert main(["demo", "--schedules", "4", "--faults", "1"]) == 0
    out = capsys.readouterr().out
    assert "quasi-static tree" in out
    assert "utility:" in out


def test_schedule_and_simulate_round_trip(tmp_path, capsys, fig1_app):
    app_path = str(tmp_path / "app.json")
    save_json(application_to_dict(fig1_app), app_path)

    assert main(["schedule", app_path, "--schedules", "4"]) == 0
    out = capsys.readouterr().out
    assert "written to" in out
    tree_path = app_path.replace(".json", ".tree.json")

    assert main(["simulate", app_path, tree_path, "--scenarios", "20"]) == 0
    out = capsys.readouterr().out
    assert "0 faults" in out
    assert "ok" in out


@pytest.mark.parametrize(
    "application,tree",
    [("myapp", "myapp.tree.json"),
     ("runs.json.d/app.json", "runs.json.d/app.tree.json")],
)
def test_schedule_writes_the_tree_beside_the_application(
    tmp_path, capsys, fig1_app, application, tree
):
    """Only a trailing ``.json`` is replaced: an application without
    the suffix is never overwritten, and ``.json`` inside a directory
    name stays."""
    app_path = tmp_path / application
    app_path.parent.mkdir(parents=True, exist_ok=True)
    save_json(application_to_dict(fig1_app), str(app_path))
    before = app_path.read_bytes()
    for _ in range(2):  # a rerun still reads the application
        assert main(["schedule", str(app_path), "--schedules", "4"]) == 0
        assert f"written to {tmp_path / tree}" in capsys.readouterr().out
    assert app_path.read_bytes() == before
    assert "nodes" in json.loads((tmp_path / tree).read_text())


def test_export_c_tables(tmp_path, capsys, fig1_app):
    app_path = str(tmp_path / "app.json")
    save_json(application_to_dict(fig1_app), app_path)
    assert main(["schedule", app_path, "--schedules", "4"]) == 0
    capsys.readouterr()
    tree_path = app_path.replace(".json", ".tree.json")
    assert main(
        ["export", app_path, tree_path, str(tmp_path), "--symbol", "demo"]
    ) == 0
    out = capsys.readouterr().out
    for name in ("rk_core.h", "rk_core.c", "demo_plan.h", "demo_plan.c"):
        assert f"wrote {tmp_path / name}" in out
        assert (tmp_path / name).exists()


def test_report_command(tmp_path, capsys, fig1_app):
    app_path = str(tmp_path / "app.json")
    save_json(application_to_dict(fig1_app), app_path)
    assert main(
        ["report", app_path, "--schedules", "4", "--scenarios", "30"]
    ) == 0
    out = capsys.readouterr().out
    assert "# Schedule synthesis report" in out


def test_unknown_experiment_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


class TestArgumentValidation:
    """Bad worker counts and cache paths die with a clear one-liner,
    not a traceback out of the pool or filesystem machinery."""

    # ``--jobs`` is no longer a flag (``--executor ENGINE@MODE:N`` sets
    # the evaluation workers); its cases pin that the retired spelling
    # still dies at parse time.
    @pytest.mark.parametrize("flag", ["--jobs", "--synthesis-jobs"])
    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_non_positive_jobs_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "cc", flag, value])
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert flag in err

    def test_simulate_jobs_validated_too(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "simulate", "a.json", "t.json",
                "--executor", "kernel@processes:0",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--executor" in err and "workers must be positive" in err

    def test_missing_cache_dir_parent_rejected(self, tmp_path, capsys):
        missing = str(tmp_path / "no" / "such" / "cache")
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "cc", "--cache-dir", missing])
        message = str(excinfo.value)
        assert "--cache-dir" in message and "does not exist" in message

    def test_cache_dir_colliding_with_a_file_rejected(self, tmp_path):
        collision = tmp_path / "taken"
        collision.write_text("not a cache")
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "cc", "--cache-dir", str(collision)])
        message = str(excinfo.value)
        assert "--cache-dir" in message and "not a directory" in message

    def test_cache_dir_itself_may_be_new(self, tmp_path, capsys):
        """Only the parent must exist; the store creates the leaf."""
        cache = tmp_path / "cache"
        assert main(["experiment", "cc", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "Cruise controller" in out
        assert "store[fs] 0 hits / 1 misses / 0 errors" in out
        assert cache.is_dir() and len(list(cache.glob("*.json"))) == 1

    def test_cache_dir_with_non_fs_backend_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "cc",
                "--cache-backend", "memory",
                "--cache-dir", str(tmp_path / "cache"),
            ])
        assert "--cache-dir only applies" in str(excinfo.value)

    def test_cache_url_without_redis_backend_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "cc",
                "--cache-url", "redis://localhost:6379/0",
            ])
        assert "--cache-url only applies" in str(excinfo.value)


def test_sigint_exits_130_with_partial_progress_line(tmp_path):
    """A real Ctrl-C against a real process: once the first unit is
    journaled, SIGINT must exit 130 with a one-line partial-progress
    message naming the resume command — no traceback."""
    import os
    import signal
    import subprocess
    import sys
    import time

    checkpoint = str(tmp_path / "ckpt")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "experiment", "table1",
            "--checkpoint", checkpoint,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        journal = os.path.join(checkpoint, "journal.jsonl")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(journal) and os.path.getsize(journal) > 0:
                break
            time.sleep(0.05)
        else:
            pytest.fail("no journal row within 60s")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    (line,) = [l for l in err.strip().splitlines() if l]  # one line only
    assert line.startswith("interrupted:")
    assert f"--checkpoint {checkpoint} --resume" in line
    assert "Traceback" not in err


def test_experiment_cache_dir_second_run_all_hits(tmp_path, capsys):
    """The acceptance run: a repeated cached experiment reports 100%
    store hits and zero FTQS builds on the synthesis summary line."""
    cache = str(tmp_path / "trees")
    assert main(["experiment", "cc", "--cache-dir", cache]) == 0
    first = capsys.readouterr().out
    assert "synthesis: 1 tree(s)" in first
    assert "store[fs] 0 hits / 1 misses / 0 errors" in first

    assert main(["experiment", "cc", "--cache-dir", cache]) == 0
    second = capsys.readouterr().out
    assert "synthesis: 0 tree(s)" in second  # zero builds
    assert "store[fs] 1 hits / 0 misses / 0 errors" in second  # 100% hits
    # The cached run reports the same table (bit-identical evaluation).
    assert first.split("synthesis:")[0].strip().splitlines()[:12] == (
        second.split("synthesis:")[0].strip().splitlines()[:12]
    )


def test_experiment_memory_backend_needs_no_flags_or_deps(capsys):
    """`--cache-backend memory` works with no extra dependencies and
    no cache directory; the summary line names the backend."""
    assert main(["experiment", "cc", "--cache-backend", "memory"]) == 0
    out = capsys.readouterr().out
    assert "Cruise controller" in out
    assert "store[memory] 0 hits / 1 misses / 0 errors" in out


def test_experiment_redis_backend_fails_fast_or_connects(capsys):
    """Without redis-py (or a reachable server) the redis backend dies
    with a clear one-liner before any synthesis work; with one (the
    nightly service container) the run simply succeeds."""
    argv = ["experiment", "cc", "--cache-backend", "redis"]
    try:
        code = main(argv)
    except SystemExit as excinfo:
        assert "--cache-backend redis" in str(excinfo)
    else:
        assert code == 0
        assert "store[redis]" in capsys.readouterr().out


def test_experiment_corrupted_cache_entry_degrades_to_error_miss(
    tmp_path, capsys
):
    """A cache entry replaced by a directory (an OSError on read) must
    not abort the run: it shows up as an error-counted miss and the
    experiment completes with a rebuilt tree."""
    import os

    cache = tmp_path / "trees"
    assert main(["experiment", "cc", "--cache-dir", str(cache)]) == 0
    first = capsys.readouterr().out
    (entry,) = list(cache.glob("*.json"))
    os.unlink(entry)
    os.makedirs(entry)
    assert main(["experiment", "cc", "--cache-dir", str(cache)]) == 0
    second = capsys.readouterr().out
    # Two counted errors: the poisoned read, then the rebuild's put
    # failing to overwrite the squatting directory — neither fatal.
    assert "store[fs] 0 hits / 1 misses / 2 errors" in second
    # Identical table despite the poisoned entry.
    assert first.split("synthesis:")[0].strip().splitlines()[:12] == (
        second.split("synthesis:")[0].strip().splitlines()[:12]
    )


class TestInputErrors:
    """A file-taking command fails on bad input with one
    ``repro: error:`` line on stderr and exit status 2."""

    @staticmethod
    def _files(tmp_path, app):
        app_path = str(tmp_path / "app.json")
        save_json(application_to_dict(app), app_path)
        assert main(["schedule", app_path, "--schedules", "4"]) == 0
        return app_path, app_path.replace(".json", ".tree.json")

    @staticmethod
    def _fails(capsys, argv, *needles):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1, err
        for needle in needles:
            assert needle in err, err

    @pytest.mark.parametrize(
        "command", ["schedule", "simulate", "report", "export"]
    )
    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_unreadable_application(self, tmp_path, capsys, command, content):
        app_path = tmp_path / "app.json"
        if content is not None:
            app_path.write_text(content)
        argv = [command, str(app_path)]
        if command in ("simulate", "export"):
            argv.append(str(tmp_path / "app.tree.json"))
        if command == "export":
            argv.append(str(tmp_path / "out"))
        self._fails(capsys, argv, "app.json" if content is None else "line 1")

    @pytest.mark.parametrize("command", ["simulate", "export"])
    def test_arc_to_an_unknown_node(self, tmp_path, capsys, fig1_app, command):
        app_path, tree_path = self._files(tmp_path, fig1_app)
        capsys.readouterr()
        with open(tree_path) as handle:
            tree = json.load(handle)
        next(n for n in tree["nodes"] if n["arcs"])["arcs"][0]["target"] = 999
        save_json(tree, tree_path)
        argv = [command, app_path, tree_path]
        if command == "export":
            argv.append(str(tmp_path / "out"))
        self._fails(capsys, argv, "unknown target node 999")

    def test_export_creates_its_directory(self, tmp_path, capsys, fig1_app):
        app_path, tree_path = self._files(tmp_path, fig1_app)
        out = tmp_path / "no" / "such" / "dir"
        assert main(["export", app_path, tree_path, str(out)]) == 0
        assert (out / "app_plan.c").exists()

    def test_export_of_a_plan_the_core_cannot_run(
        self, tmp_path, capsys, fig1_soft_utility_app
    ):
        from repro.model.hypergraph import ShiftedUtility
        from repro.utility.functions import ConstantUtility

        app = fig1_soft_utility_app(ShiftedUtility(ConstantUtility(10.0), 5))
        app_path, tree_path = self._files(tmp_path, app)
        capsys.readouterr()
        self._fails(
            capsys,
            ["export", app_path, tree_path, str(tmp_path / "out")],
            "unsupported-utility",
        )
