"""Command-line interface: ``python -m repro ...`` / ``repro ...``.

Sub-commands:

* ``experiment {fig9a,fig9b,table1,cc,ablations,sweeps}`` — regenerate
  a paper table/figure (``--paper-scale`` restores the full §6 sizes;
  ``--cache-dir DIR`` / ``--cache-backend {fs,memory,redis}`` cache
  synthesized trees content-addressed, so repeated identical runs
  skip every FTQS build; ``--checkpoint DIR``/``--resume`` journal
  completed evaluation units so a killed sweep resumes byte-identical;
  ``--chaos SPEC`` injects deterministic faults to exercise the
  recovery paths);
* ``serve`` — run the scheduling service: ``POST /v1/schedule`` /
  ``POST /v1/evaluate`` JSON over HTTP with health/readiness/metrics
  probes, bounded-queue backpressure (429), per-request deadlines
  (504) and graceful drain on SIGTERM;
* ``demo`` — run the quickstart pipeline on the paper's Fig. 1
  example and print a Gantt chart;
* ``schedule APP.json`` — synthesize a quasi-static tree for an
  application stored as JSON and write it next to it;
* ``simulate APP.json TREE.json`` — replay random scenarios against a
  stored tree and report utilities;
* ``export APP.json TREE.json DIR`` — write the C core
  ``rk_core.{h,c}`` and the tree's tables ``<symbol>_plan.{h,c}``
  into ``DIR`` (created when missing);
* ``report APP.json`` — run the full pipeline and print a markdown
  synthesis report.

Unreadable input files end a command with one ``repro: error:`` line
and exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

from repro.evaluation.experiments import (
    AblationConfig,
    CCConfig,
    Fig9Config,
    Table1Config,
    format_ablations,
    format_fig9,
    format_table1,
    run_ablations,
    run_cc,
    run_fig9,
    run_table1,
)
from repro.execution import DEFAULT_ENGINE


def _positive_int(text: str) -> int:
    """argparse type for worker counts: an integer >= 1.

    Rejects ``--synthesis-jobs 0`` / ``--max-inflight -2`` at parse
    time with a one-line usage error instead of a deep traceback out
    of the pool machinery.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be at least 1, got {value}"
        )
    return value


def _executor_spec(text: str):
    """argparse type for ``--executor SPEC``: the parsed config itself.

    A malformed spec dies at parse time (exit 2) with the same
    one-line message — enumerating the valid engines and modes — that
    the library raises.
    """
    from repro.errors import RuntimeModelError
    from repro.execution import ExecutionConfig

    try:
        return ExecutionConfig.parse(text)
    except RuntimeModelError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _open_store(args: argparse.Namespace):
    """The tree store for ``--cache-backend``/``--cache-dir``.

    ``fs`` (the default) activates only when ``--cache-dir`` is given
    — its directory is created on demand, but a nonexistent *parent*
    is almost always a typo, so that dies with a clear error instead
    of silently caching into a surprise location.  ``memory`` needs no
    flags at all; ``redis`` connects to ``--cache-url`` (or the
    default localhost URL) and fails fast — missing redis package or
    unreachable server — before any synthesis work starts.
    """
    kind = getattr(args, "cache_backend", "fs") or "fs"
    cache_dir = getattr(args, "cache_dir", None)
    cache_url = getattr(args, "cache_url", None)
    if kind != "fs" and cache_dir:
        raise SystemExit(
            f"error: --cache-dir only applies to --cache-backend fs "
            f"(got --cache-backend {kind})"
        )
    if kind != "redis" and cache_url:
        raise SystemExit(
            "error: --cache-url only applies to --cache-backend redis"
        )
    if kind == "fs":
        if not cache_dir:
            return None
        parent = os.path.dirname(os.path.abspath(cache_dir))
        if not os.path.isdir(parent):
            raise SystemExit(
                f"error: --cache-dir parent directory does not exist: "
                f"{parent}"
            )
        if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
            raise SystemExit(
                f"error: --cache-dir exists but is not a directory: "
                f"{cache_dir}"
            )
    from repro.pipeline.store import TreeStore, open_backend

    try:
        backend = open_backend(kind, cache_dir=cache_dir, url=cache_url)
    except Exception as exc:
        # Missing redis package, unreachable server, bad URL: a clear
        # one-liner beats a traceback out of the connection machinery.
        raise SystemExit(f"error: --cache-backend {kind}: {exc}")
    return TreeStore(backend=backend)


def _wants_store(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "cache_dir", None)
        or getattr(args, "cache_backend", "fs") not in (None, "fs")
    )


def _synthesis_routing(args: argparse.Namespace):
    """(kwargs for run_*, stats collector or None) from the CLI flags."""
    from repro.quasistatic.synthesis import SynthesisStats

    stats = (
        SynthesisStats()
        if args.synthesis == "fast" or _wants_store(args)
        else None
    )
    return (
        {
            "synthesis": args.synthesis,
            "synthesis_jobs": args.synthesis_jobs,
            "stats": stats,
        },
        stats,
    )


def _print_synthesis_line(stats, store=None) -> None:
    """Construction summary mirroring the simulate fast-path line."""
    if stats is None:
        return
    if store is not None:
        stats.absorb_store(store)
    if stats.trees_built or stats.store_hits or stats.store_misses:
        print(stats.summary_line())


def _open_checkpoint(args: argparse.Namespace, name: str, config=None):
    """The resume journal for ``--checkpoint``/``--resume`` (or None).

    The workload fingerprint masks the routing knob, so the routed
    config can be passed directly: a sweep checkpointed with
    ``--executor kernel@processes:4`` resumes fine under
    ``--executor reference``.  Manifest mismatches
    (wrong experiment, different workload) die with the checkpoint
    module's one-line explanation instead of a traceback.
    """
    directory = getattr(args, "checkpoint", None)
    if not directory:
        return None
    from repro.errors import RuntimeModelError
    from repro.pipeline.checkpoint import ExperimentCheckpoint

    try:
        return ExperimentCheckpoint(
            directory,
            experiment=name,
            config=config,
            resume=getattr(args, "resume", False),
        )
    except RuntimeModelError as exc:
        raise SystemExit(f"error: {exc}")


def _chaos_plan(text: str):
    """argparse type for ``--chaos SPEC``: the parsed plan itself.

    Parsing at argument time means a typo dies as a one-line usage
    error before any experiment state (stores, checkpoints, pools)
    has been touched — not minutes into a long run.
    """
    from repro.pipeline import chaos

    try:
        return chaos.ChaosPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _chaos_context(args: argparse.Namespace):
    """Scoped activation of the already-parsed ``--chaos`` plan."""
    plan = getattr(args, "chaos", None)
    if plan is None:
        return contextlib.nullcontext()
    from repro.pipeline import chaos

    return chaos.active(plan)


@contextlib.contextmanager
def _input_errors():
    """Bad input: one line on stderr and exit status 2, no traceback."""
    from repro.errors import ReproError

    try:
        yield
    except (OSError, json.JSONDecodeError, ReproError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _load_inputs(args: argparse.Namespace):
    """``(application, tree)`` of the command's input files; the tree
    is ``None`` for a command that takes none."""
    from repro.io.json_io import application_from_dict, load_json
    from repro.io.json_io import tree_from_dict

    with _input_errors():
        app = application_from_dict(load_json(args.application))
        if getattr(args, "tree", None) is None:
            return app, None
        return app, tree_from_dict(app, load_json(args.tree))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.pipeline.chaos import ChaosKill
    from repro.pipeline.resources import ResourceManager
    from repro.runtime.engine.parallel import (
        pool_recovery,
        reset_pool_recovery,
    )

    name = args.name
    if getattr(args, "resume", False) and not getattr(
        args, "checkpoint", None
    ):
        raise SystemExit(
            "error: --resume needs --checkpoint DIR (the journal to "
            "resume from)"
        )
    routing = {"execution": args.executor.spec()}
    synthesis, stats = _synthesis_routing(args)
    reset_pool_recovery()
    store = _open_store(args)
    synthesis["store"] = store
    checkpoint = None
    try:
        # The chaos plan (if any) is active for the whole run; the
        # manager owns the store too, so leaving the block — normally
        # or while unwinding an interrupt — releases the worker pools
        # and the store backend's connections together.
        with _chaos_context(args), ResourceManager(
            store=store
        ) as resources:
            synthesis["resources"] = resources
            if name in ("fig9a", "fig9b"):
                config = (
                    Fig9Config.paper_scale()
                    if args.paper_scale
                    else Fig9Config()
                )
                if args.apps:
                    config = replace(config, apps_per_size=args.apps)
                config = replace(config, **routing)
                checkpoint = _open_checkpoint(args, name, config)
                synthesis["checkpoint"] = checkpoint
                rows = run_fig9(config, **synthesis)
                print(
                    format_fig9(rows, panel="a" if name == "fig9a" else "b")
                )
            elif name == "table1":
                config = (
                    Table1Config.paper_scale()
                    if args.paper_scale
                    else Table1Config()
                )
                config = replace(config, **routing)
                checkpoint = _open_checkpoint(args, name, config)
                synthesis["checkpoint"] = checkpoint
                print(format_table1(run_table1(config, **synthesis)))
            elif name == "cc":
                config = (
                    CCConfig.paper_scale() if args.paper_scale else CCConfig()
                )
                config = replace(config, **routing)
                checkpoint = _open_checkpoint(args, name, config)
                synthesis["checkpoint"] = checkpoint
                print(run_cc(config, **synthesis).format())
            elif name == "ablations":
                config = AblationConfig(**routing)
                checkpoint = _open_checkpoint(args, name, config)
                synthesis["checkpoint"] = checkpoint
                print(format_ablations(run_ablations(config, **synthesis)))
            elif name == "sweeps":
                from repro.evaluation.experiments import (
                    SweepConfig,
                    format_sweep,
                    run_fault_budget_sweep,
                    run_soft_ratio_sweep,
                )

                config = SweepConfig(**routing)
                checkpoint = _open_checkpoint(args, name, config)
                synthesis["checkpoint"] = checkpoint
                print(
                    format_sweep(
                        run_soft_ratio_sweep(config=config, **synthesis),
                        "soft ratio",
                    )
                )
                print()
                print(
                    format_sweep(
                        run_fault_budget_sweep(config=config, **synthesis),
                        "fault budget k",
                    )
                )
            else:
                print(f"unknown experiment {name!r}", file=sys.stderr)
                return 2
        _print_synthesis_line(stats, store)
        if checkpoint is not None:
            print(checkpoint.summary_line())
        recovery = pool_recovery()
        if recovery.any():
            print(f"resilience: pool {recovery.summary()}")
        return 0
    except KeyboardInterrupt:
        # Pools and store were already released by the with-block's
        # unwinding; report partial progress in one line, no traceback.
        if checkpoint is not None:
            progress = (
                f"{checkpoint.journaled} unit(s) journaled this "
                f"session, {checkpoint.completed} on disk — resume "
                f"with --checkpoint {checkpoint.directory} --resume"
            )
        else:
            progress = (
                "partial progress discarded (use --checkpoint DIR for "
                "resumable runs)"
            )
        print(f"interrupted: {progress}", file=sys.stderr)
        return 130
    except ChaosKill as exc:
        # The chaos plan's scripted mid-run kill: distinct exit code
        # so the harness can tell "died as scripted" from real failures.
        print(f"chaos: {exc}", file=sys.stderr)
        if checkpoint is not None:
            print(checkpoint.summary_line(), file=sys.stderr)
        return 75
    finally:
        if checkpoint is not None:
            checkpoint.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.pipeline.store.resilient import ResilientBackend
    from repro.service import ServiceConfig, serve

    store = _open_store(args)
    if store is not None and not isinstance(store.backend, ResilientBackend):
        # Every served backend gets retry + circuit breaker: a cache
        # outage (or a --chaos store-fail burst) must degrade the
        # readiness probe, never fail scheduling requests.
        store.backend = ResilientBackend(store.backend)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        execution=args.executor,
        synthesis_jobs=args.synthesis_jobs,
        synthesis=args.synthesis,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        request_timeout=(
            args.request_timeout if args.request_timeout > 0 else None
        ),
        drain_timeout=args.drain_timeout,
        store=store,
    )
    with _chaos_context(args):
        return serve(config)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis.gantt import render_gantt
    from repro.examples_support import paper_fig1_application
    from repro.faults.injection import ScenarioSampler
    from repro.quasistatic.ftqs import schedule_application
    from repro.runtime.online import simulate

    app = paper_fig1_application()
    result = schedule_application(app, max_schedules=args.schedules)
    print(f"quasi-static tree: {result.summary()}")
    sampler = ScenarioSampler(app, seed=args.seed)
    scenario = sampler.sample(faults=args.faults)
    outcome = simulate(app, result.tree, scenario)
    print(render_gantt(app, outcome))
    return 0


def _tree_path(application: str) -> str:
    """Where ``repro schedule`` writes the tree of ``application``
    without ``--output``: a trailing ``.json`` becomes ``.tree.json``,
    and any other path gets ``.tree.json`` appended."""
    if application.endswith(".json"):
        application = application[: -len(".json")]
    return application + ".tree.json"


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.io.json_io import save_json, tree_to_dict
    from repro.quasistatic.ftqs import schedule_application

    app, _ = _load_inputs(args)
    synthesis, stats = _synthesis_routing(args)
    result = schedule_application(
        app,
        max_schedules=args.schedules,
        synthesis=args.synthesis,
        jobs=args.synthesis_jobs,
        stats=stats,
    )
    output = args.output or _tree_path(args.application)
    save_json(tree_to_dict(result.tree), output)
    print(f"{result.summary()}\nwritten to {output}")
    _print_synthesis_line(stats)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.evaluation.montecarlo import MonteCarloEvaluator

    app, tree = _load_inputs(args)
    execution = args.executor
    if execution.engine == "kernel":
        from repro.runtime.engine.kernel import reset_kernel_stats

        reset_kernel_stats()
    if execution.mode == "threads":
        from repro.runtime.engine.threads import reset_thread_stats

        reset_thread_stats()
    evaluator = MonteCarloEvaluator(
        app,
        n_scenarios=args.scenarios,
        fault_counts=list(range(app.k + 1)),
        seed=args.seed,
        execution=execution,
    )
    with _chaos_context(args), evaluator:
        outcomes = evaluator.evaluate(tree)
    for faults, outcome in sorted(outcomes.items()):
        status = "ok" if outcome.ok else "DEADLINE MISSES"
        fast_path = (
            f", fast path {100.0 * outcome.fast_path_share:.1f}% "
            f"({outcome.fallbacks} oracle fallbacks)"
            if execution.engine == "kernel"
            else ""
        )
        print(
            f"{faults} faults: mean utility {outcome.mean_utility:.1f}, "
            f"{outcome.mean_switches:.2f} switches/cycle"
            f"{fast_path} [{status}]"
        )
    if execution.engine == "kernel":
        from repro.runtime.engine.kernel import kernel_stats

        print(f"simulate: kernel {kernel_stats().summary()}")
    if execution.mode == "threads":
        from repro.runtime.engine.threads import thread_stats

        print(f"simulate: threads {thread_stats().summary()}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io.c_export import write_c_tables

    app, tree = _load_inputs(args)
    with _input_errors():
        paths = write_c_tables(app, tree, args.directory, symbol=args.symbol)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import synthesis_report

    app, _ = _load_inputs(args)
    _, stats = _synthesis_routing(args)
    report = synthesis_report(
        app,
        max_schedules=args.schedules,
        n_scenarios=args.scenarios,
        seed=args.seed,
        execution=args.executor,
        synthesis=args.synthesis,
        synthesis_jobs=args.synthesis_jobs,
        stats=stats,
    )
    print(report.to_markdown())
    _print_synthesis_line(stats)
    return 0


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """Tree-store flags shared by ``experiment`` and ``serve``."""
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed tree store: identical (application, "
        "root, FTQS config) synthesis inputs reload the cached tree "
        "instead of rebuilding, so repeated runs report 100%% store "
        "hits and zero FTQS builds (hit/miss/error counts appear on "
        "the 'synthesis:' summary line); implies --cache-backend fs",
    )
    parser.add_argument(
        "--cache-backend",
        choices=["fs", "memory", "redis"],
        default="fs",
        help="where the tree store lives: 'fs' = a --cache-dir "
        "directory of <fingerprint>.json files, 'memory' = an "
        "in-process LRU (no flags, no dependencies — caches repeats "
        "within one run), 'redis' = a server shared by a fleet of "
        "workers (needs the redis package; see --cache-url)",
    )
    parser.add_argument(
        "--cache-url",
        default=None,
        help="redis connection URL for --cache-backend redis "
        "(default redis://localhost:6379/0)",
    )


def _add_chaos_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos",
        type=_chaos_plan,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for exercising the "
        "recovery paths: comma-separated tokens — kill-worker@I[xN] "
        "(SIGKILL the worker on task I, N times), hang-worker@I, "
        "store-fail@N / store-fail@A-B / store-fail@~K/M (fail the "
        "Nth / every A..Bth / K seeded of the first M store ops), "
        "slow-request@N[xS] (wedge the Nth served compute request "
        "for S seconds, default 30), kill-run@N (die after N "
        "journaled units; exit code 75), kernel-fail@N / "
        "kernel-fail@A-B (fail the Nth / every A..Bth kernel compile "
        "attempt, degrading to the reference oracle), thread-fail@N / "
        "thread-fail@A-B (fail the Nth / every A..Bth threaded "
        "evaluation, falling back to process sharding), budget@N, "
        "seed@S; a bad token fails at parse time",
    )


def _add_executor_option(parser: argparse.ArgumentParser) -> None:
    """The Monte-Carlo routing flag shared by the sub-commands."""
    parser.add_argument(
        "--executor",
        type=_executor_spec,
        default=DEFAULT_ENGINE,
        metavar="SPEC",
        help="Monte-Carlo execution spec ENGINE[@MODE[:WORKERS]] — "
        "engines: reference (pure-Python oracle loop), kernel (one C "
        "core over per-plan tables; needs a C compiler and a writable "
        "kernel cache, else replays on the oracle with a counted "
        "reason); modes: inline "
        "(default), processes (shard across worker processes), "
        "threads (shard across GIL-free threads; kernel engine only, "
        "the reference engine falls back to processes with a counted "
        "reason). Results are bit-identical for every spec, only "
        "speed differs; e.g. 'kernel@threads:8', "
        "'kernel@processes:4', 'reference' "
        f"(default: {DEFAULT_ENGINE})",
    )


def _add_synthesis_options(parser: argparse.ArgumentParser) -> None:
    """Synthesis-engine routing flags shared by the sub-commands."""
    from repro.quasistatic.ftqs import SYNTHESIS_ENGINES

    parser.add_argument(
        "--synthesis",
        choices=list(SYNTHESIS_ENGINES),
        default="fast",
        help="FTQS synthesis engine: the reference construction or the "
        "memoized/vectorized engine (identical trees, several times "
        "faster)",
    )
    parser.add_argument(
        "--synthesis-jobs",
        type=_positive_int,
        default=1,
        help="worker processes for FTQS candidate evaluation "
        "(identical trees for any count)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fault-tolerant quasi-static scheduling (Izosimov et al., "
            "DATE 2008) — schedule synthesis, simulation and the "
            "paper's experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument(
        "name",
        choices=["fig9a", "fig9b", "table1", "cc", "ablations", "sweeps"],
    )
    exp.add_argument(
        "--paper-scale",
        action="store_true",
        help="full §6 sizes (50 apps/size, 20k scenarios) — slow",
    )
    exp.add_argument("--apps", type=int, default=0, help="apps per size")
    _add_cache_options(exp)
    exp.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="journal completed evaluation units to DIR (a manifest "
        "plus an append-only JSONL, fsynced per unit) so a killed run "
        "can be resumed with --resume; the resumed run skips finished "
        "work and emits rows byte-identical to an uninterrupted run",
    )
    exp.add_argument(
        "--resume",
        action="store_true",
        help="resume from an existing --checkpoint DIR: journaled "
        "units are decoded instead of re-simulated (refuses a "
        "checkpoint whose experiment or workload fingerprint does "
        "not match)",
    )
    _add_chaos_option(exp)
    _add_executor_option(exp)
    _add_synthesis_options(exp)
    exp.set_defaults(func=_cmd_experiment)

    srv = sub.add_parser(
        "serve",
        help="run the scheduling service (JSON over HTTP)",
        description="Serve POST /v1/schedule and POST /v1/evaluate "
        "over HTTP, plus the /healthz, /readyz and /metrics probes. "
        "Responses of /v1/schedule are byte-identical to the files "
        "the 'schedule' sub-command writes. SIGTERM/Ctrl-C drains "
        "in-flight requests and exits 0.",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 = pick an ephemeral port; the bound "
        "address is printed as 'serving on http://HOST:PORT')",
    )
    srv.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=4,
        help="scheduling/evaluation requests computed concurrently",
    )
    srv.add_argument(
        "--max-queue",
        type=_positive_int,
        default=16,
        help="requests allowed to wait for a worker; beyond that new "
        "requests are shed with 429 and a Retry-After hint",
    )
    srv.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request wall-clock deadline — an overdue request "
        "gets 504 and its computation is discarded (0 = no deadline)",
    )
    srv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long a graceful shutdown waits for in-flight work",
    )
    _add_cache_options(srv)
    _add_chaos_option(srv)
    _add_executor_option(srv)
    _add_synthesis_options(srv)
    srv.set_defaults(func=_cmd_serve)

    demo = sub.add_parser("demo", help="run the Fig. 1 example")
    demo.add_argument("--schedules", type=int, default=8)
    demo.add_argument("--faults", type=int, default=1)
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(func=_cmd_demo)

    sched = sub.add_parser("schedule", help="synthesize a tree for an app")
    sched.add_argument("application", help="application JSON file")
    sched.add_argument("--schedules", type=int, default=16)
    sched.add_argument("--output", default=None)
    _add_synthesis_options(sched)
    sched.set_defaults(func=_cmd_schedule)

    sim = sub.add_parser("simulate", help="replay scenarios against a tree")
    sim.add_argument("application")
    sim.add_argument("tree")
    sim.add_argument("--scenarios", type=int, default=200)
    sim.add_argument("--seed", type=int, default=1)
    _add_chaos_option(sim)
    _add_executor_option(sim)
    sim.set_defaults(func=_cmd_simulate)

    export = sub.add_parser(
        "export",
        help="write the C core (rk_core.h/.c) and a tree's tables "
        "(SYMBOL_plan.h/.c) into DIRECTORY; C99, build with "
        "-ffp-contract=off",
    )
    export.add_argument("application")
    export.add_argument("tree")
    export.add_argument("directory")
    export.add_argument("--symbol", default="app")
    export.set_defaults(func=_cmd_export)

    report = sub.add_parser("report", help="print a synthesis report")
    report.add_argument("application")
    report.add_argument("--schedules", type=int, default=8)
    report.add_argument("--scenarios", type=int, default=200)
    report.add_argument("--seed", type=int, default=1)
    _add_executor_option(report)
    _add_synthesis_options(report)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
