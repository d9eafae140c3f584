"""The C kernel engine: build, cache, fallback and chaos.

Bit identity with the oracle is gated by
``tests/test_engine_differential.py``; this file covers the machinery
around the kernel itself — that the one C core is warning-clean under
strict flags, that it is built once and then served from the artifact
cache (also to a fresh process, which lowers its own plans), that a
failed build is not retried, that plans' lowered tables come from an
in-process memo keyed by the plan's content and bounded
least-recently-used, that the content digests of the tree store and
the checkpoint journal stay put, that every way the kernel can fail to
materialize (no compiler, an unusable cache directory, injected chaos)
degrades to the reference oracle with a counted reason and identical
results, and that the stats counters stay exact under concurrent
updates.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.examples_support import (
    paper_fig1_application,
    paper_fig8_application,
)
from repro.quasistatic.ftqs import FTQSConfig, ftqs_reference
from repro.runtime.engine import BatchSimulator
from repro.runtime.engine.kernel import (
    KernelSimulator,
    KernelStats,
    find_compiler,
    generate_kernel_source,
    kernel_stats,
)
from repro.runtime.engine.threads import ThreadStats
from repro.scheduling.ftss import ftss, ftss_reference
from repro.workloads.cruise import cruise_controller
from test_engine_differential import _hard_pred_app


def _tree(app, schedules=6):
    """An FTQS plan built on the oracles, which never touch the core:
    the build, cache and fallback counters these tests read are the
    simulator's alone."""
    root = ftss_reference(app)
    assert root is not None
    return ftqs_reference(app, root, FTQSConfig(max_schedules=schedules))


def _batch(app, n=40, fault_counts=None, seed=3):
    return MonteCarloEvaluator(
        app, n_scenarios=n, fault_counts=fault_counts, seed=seed
    ).scenarios


def _assert_same_results(app, plan, simulator):
    """``simulator`` must reproduce the oracle's replay bit for bit."""
    oracle = BatchSimulator(app, plan)
    for faults, batch in _batch(app).items():
        expected = oracle.run_batch(batch)
        actual = simulator.run_batch(batch)
        assert actual.utilities.tobytes() == expected.utilities.tobytes()
        assert (actual.deadline_miss == expected.deadline_miss).all()
        assert (actual.switch_counts == expected.switch_counts).all()
        assert (actual.faults_observed == expected.faults_observed).all()
        assert actual.switch_chains == expected.switch_chains


def _needs_compiler():
    if find_compiler() is None:
        pytest.skip("no C compiler available")


def _three_plans():
    """The fig1, fig8 and cruise-controller FTQS plans."""
    return [
        (paper_fig1_application(), 6),
        (paper_fig8_application(), 6),
        (cruise_controller(), 4),
    ]


def _serve_plans() -> dict:
    """Construct a kernel simulator per plan; stats plus a digest of
    every result, for comparison across processes."""
    digest = hashlib.sha256()
    engines = []
    for app, schedules in _three_plans():
        simulator = KernelSimulator(app, _tree(app, schedules))
        engines.append(simulator.engine_used)
        for _, batch in sorted(_batch(app).items()):
            result = simulator.run_batch(batch)
            digest.update(result.utilities.tobytes())
            digest.update(repr(result.switch_chains).encode())
    stats = kernel_stats()
    return {
        "engines": engines,
        "compiles": stats.compiles,
        "cache_hits": stats.cache_hits,
        "fallbacks": stats.fallbacks,
        "digest": digest.hexdigest(),
    }


def _serve_plans_in_fresh_process() -> None:
    """Entry point of the second process: counts its lowerings."""
    import repro.runtime.engine.kernel.dispatch as dispatch

    lowered = []
    lower_plan = dispatch.lower_plan

    def counting(*args):
        lowered.append(1)
        return lower_plan(*args)

    dispatch.lower_plan = counting
    served = _serve_plans()
    print(json.dumps({**served, "lowered": len(lowered)}))


# ----------------------------------------------------------------------
# The core
# ----------------------------------------------------------------------
def test_core_compiles_warning_clean(tmp_path):
    """The core compiles alone under strict C99 with every warning an
    error, and without variable-length arrays.

    The production flags don't include warnings; this pins that the
    core never relies on the compiler being lenient, and that the
    translation unit the cache stores needs no other file.
    """
    _needs_compiler()
    c_path = tmp_path / "core.c"
    c_path.write_text(generate_kernel_source())
    proc = subprocess.run(
        [
            find_compiler(), "-std=c99", "-Wall", "-Wextra", "-Werror",
            "-Wvla", "-pedantic", "-O2", "-fPIC", "-shared",
            "-ffp-contract=off",
            "-o", str(tmp_path / "core.so"), str(c_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"core not warning-clean:\n{proc.stderr}"


def _hard_pred_root(app):
    from repro.scheduling.fschedule import FSchedule, ScheduledEntry

    return FSchedule(
        app,
        [ScheduledEntry("A", 1), ScheduledEntry("H", 1),
         ScheduledEntry("S", 1)],
        fault_budget=1,
    )


def test_plan_key_is_the_plan_content(fig1_app):
    """Equal content → equal key, whatever the objects; a different
    plan or a different WCET → a different key."""
    from repro.io.json_io import (
        application_from_dict,
        application_to_dict,
        tree_from_dict,
        tree_to_dict,
    )
    from repro.quasistatic.tree import QSTree
    from repro.runtime.engine.kernel.dispatch import plan_key

    tree = _tree(fig1_app)
    twin_app = application_from_dict(application_to_dict(fig1_app))
    twin_tree = tree_from_dict(twin_app, tree_to_dict(tree))
    key = plan_key(fig1_app, tree)
    assert plan_key(twin_app, twin_tree) == key
    assert plan_key(fig1_app, QSTree(tree.root.schedule)) != key
    document = application_to_dict(fig1_app)
    document["graph"]["processes"][0]["wcet"] += 1
    widened = application_from_dict(document)
    rebound = tree_from_dict(widened, tree_to_dict(tree))
    assert plan_key(widened, rebound) != key


def test_plan_key_follows_predecessor_order():
    """Two applications that serialize identically but list one
    process's predecessors in another order lower to different
    ``pred`` tables, so they get different memo keys."""
    from repro.io.json_io import application_to_dict
    from repro.quasistatic.tree import QSTree
    from repro.runtime.engine.kernel.dispatch import plan_key
    from repro.runtime.engine.kernel.lower import lower_plan

    first, second = _hard_pred_app(("A", "H")), _hard_pred_app(("H", "A"))
    assert application_to_dict(first) == application_to_dict(second)
    assert first.graph.predecessors("S") != second.graph.predecessors("S")
    trees = [QSTree(_hard_pred_root(app)) for app in (first, second)]
    assert (
        lower_plan(first, trees[0]).arrays["pred"].tobytes()
        != lower_plan(second, trees[1]).arrays["pred"].tobytes()
    )
    assert plan_key(first, trees[0]) != plan_key(second, trees[1])


def _fig1_variants(app, tree):
    """``(label, application, tree)`` of Fig. 1's plan with one thing
    the lowered tables read changed each, every pair rebound from
    edited documents."""
    from repro.io.json_io import (
        application_from_dict,
        application_to_dict,
        tree_from_dict,
        tree_to_dict,
    )

    def edited(edit_app=None, edit_tree=None):
        app_doc, tree_doc = application_to_dict(app), tree_to_dict(tree)
        if edit_app is not None:
            edit_app(app_doc)
        if edit_tree is not None:
            edit_tree(tree_doc)
        twin = application_from_dict(app_doc)
        return twin, tree_from_dict(twin, tree_doc)

    processes = lambda doc: doc["graph"]["processes"]  # noqa: E731
    root = lambda doc: doc["nodes"][0]  # noqa: E731
    entries = root(tree_to_dict(tree))["schedule"]["entries"]
    soft = next(
        i for i, e in enumerate(entries) if app.process(e["name"]).is_soft
    )

    def set_cap(doc):
        root(doc)["schedule"]["entries"][soft]["reexecutions"] += 1

    def flip_sharing(doc):
        schedule = root(doc)["schedule"]
        schedule["slack_sharing"] = not schedule["slack_sharing"]

    def widen_arc(doc):
        root(doc)["arcs"][0]["hi"] += 1

    def move_breakpoint(doc):
        processes(doc)[1]["utility"]["steps"][0][0] += 1

    return [
        ("k", *edited(edit_app=lambda doc: doc.update(k=doc["k"] + 1))),
        ("period", *edited(
            edit_app=lambda doc: doc.update(period=doc["period"] + 1)
        )),
        ("wcet", *edited(
            edit_app=lambda doc: processes(doc)[0].update(wcet=71)
        )),
        ("breakpoint", *edited(edit_app=move_breakpoint)),
        ("cap", *edited(edit_tree=set_cap)),
        ("slack sharing", *edited(edit_tree=flip_sharing)),
        ("arc bound", *edited(edit_tree=widen_arc)),
    ]


def test_plan_key_covers_what_lowering_reads(fig1_app):
    """The memo key changes with every input of the lowered tables —
    k, the period, a WCET, a utility breakpoint, a cap, a node's slack
    sharing, an arc bound; the predecessor order is
    ``test_plan_key_follows_predecessor_order``'s — and survives a JSON
    round trip."""
    from repro.io.json_io import (
        application_from_dict,
        application_to_dict,
        tree_from_dict,
        tree_to_dict,
    )
    from repro.quasistatic.ftqs import ftqs
    from repro.runtime.engine.kernel.dispatch import plan_key

    root = ftss_reference(fig1_app)
    tree = ftqs(fig1_app, root, FTQSConfig(max_schedules=6))
    assert tree.root.arcs
    key = plan_key(fig1_app, tree)
    twin = application_from_dict(application_to_dict(fig1_app))
    assert plan_key(twin, tree_from_dict(twin, tree_to_dict(tree))) == key
    keys = {key}
    for label, app, variant in _fig1_variants(fig1_app, tree):
        changed = plan_key(app, variant)
        assert changed not in keys, label
        keys.add(changed)


def test_round_tripped_plan_hits_the_memo(fig1_app, kernel_cache,
                                          monkeypatch):
    """A second simulator on a JSON round trip of the application and
    the tree counts a memo hit and lowers nothing, and its plan key
    builds no JSON document.  The memo keeps the one ``LoweredPlan``
    whose struct ``rk_thresholds`` filled through."""
    _needs_compiler()
    import repro.io.json_io as json_io
    import repro.runtime.engine.kernel.dispatch as dispatch

    tree = _tree(fig1_app)
    twin = json_io.application_from_dict(json_io.application_to_dict(fig1_app))
    twin_tree = json_io.tree_from_dict(twin, json_io.tree_to_dict(tree))
    lowered, filled, documents = [], [], []
    lower_plan = dispatch.lower_plan
    fill_thresholds = dispatch.Core.fill_thresholds

    def counting(app, plan, core):
        lowered.append(plan)
        return lower_plan(app, plan, core)

    def recording_fill(core, plan, sharing, bad):
        filled.append(plan)
        fill_thresholds(core, plan, sharing, bad)

    def no_documents(*args, **kwargs):
        documents.append(args)
        raise AssertionError("the plan key built a JSON document")

    monkeypatch.setattr(dispatch, "lower_plan", counting)
    monkeypatch.setattr(dispatch.Core, "fill_thresholds", recording_fill)
    for name in ("application_to_dict", "tree_to_dict", "content_digest"):
        monkeypatch.setattr(json_io, name, no_documents)
    first = KernelSimulator(fig1_app, tree)
    second = KernelSimulator(twin, twin_tree)
    assert [first.engine_used, second.engine_used] == ["kernel"] * 2
    assert len(lowered) == 1 and documents == []
    assert len(filled) == 1 and filled[0] is first._lowered
    assert kernel_stats().cache_hits == 1
    assert second._lowered is first._lowered
    _assert_same_results(twin, twin_tree, second)


def test_one_context_and_one_lowering_per_application(kernel_cache,
                                                      monkeypatch):
    """A one-application Fig. 9 run — FTSS admission, FTSF, FTQS and
    the kernel evaluation of three plans — builds one scheduling
    context and lowers the application's records once per application
    object it draws."""
    _needs_compiler()
    from repro.evaluation.experiments.fig9 import Fig9Config, Fig9Runner
    from repro.runtime.engine.kernel import lower
    from repro.scheduling.compiled import SchedulingContext

    contexts, lowerings = [], []
    init = SchedulingContext.__init__
    lower_application = lower.lower_application

    def counting_init(self, app):
        contexts.append(app)
        init(self, app)

    def counting_lower(ctx):
        lowerings.append(ctx.app)
        return lower_application(ctx)

    monkeypatch.setattr(SchedulingContext, "__init__", counting_init)
    monkeypatch.setattr(lower, "lower_application", counting_lower)
    config = Fig9Config(
        sizes=(20,), apps_per_size=1, n_scenarios=30, max_schedules=8,
        k=3, mu=15, seed=5, execution="kernel",
    )
    rows = Fig9Runner(config).run()
    assert rows
    assert len(contexts) == len({id(app) for app in contexts}) == 1
    assert [id(app) for app in lowerings] == [id(app) for app in contexts]
    assert kernel_stats().fallbacks == {}


def test_application_and_context_are_freed_together():
    """The application → context → application cycle is collectable:
    once nothing else holds the application, it and its context (with
    the core's tables) are freed, while lowered plans stay memoized."""
    import gc
    import weakref

    from repro.scheduling.compiled import SchedulingContext

    app = paper_fig8_application()
    tree = _tree(app)
    ftss(app)
    KernelSimulator(app, tree).run_batch(_batch(app, n=4)[0])
    ctx = SchedulingContext.of(app)
    assert SchedulingContext.of(app) is ctx
    refs = [weakref.ref(app), weakref.ref(ctx), weakref.ref(ctx.core)]
    del app, tree, ctx
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_pickled_application_leaves_its_context_behind(fig1_app):
    """Process workers receive pickled applications: the context (it
    holds ctypes pointers) is not part of the pickle, and the copy
    builds its own."""
    import pickle

    from repro.scheduling.compiled import SchedulingContext

    ctx = SchedulingContext.of(fig1_app)
    copy = pickle.loads(pickle.dumps(fig1_app))
    assert copy._context is None and fig1_app._context is ctx
    assert SchedulingContext.of(copy) is not ctx
    assert ftss(copy).entries == ftss(fig1_app).entries


def test_content_digests_are_pinned():
    """The tree store's fingerprint and application tag and the
    checkpoint's workload and unit keys of one fixed input keep their
    digests, so existing ``--cache-dir`` stores and checkpoints still
    hit.  The fingerprint hashes ``asdict(FTQSConfig)``, so it moves
    whenever a config field is added or removed."""
    from repro.pipeline.checkpoint import (
        JournalingEvaluator,
        checkpoint_fingerprint,
    )
    from repro.pipeline.store.core import application_tag, fingerprint
    from repro.quasistatic.tree import QSTree

    app = _hard_pred_app()
    root = _hard_pred_root(app)
    assert fingerprint(app, root, FTQSConfig(max_schedules=4)) == (
        "0cf3d3e9e03f2663003c8d5d2bb615cc32c64e21a78360a8728247e8ec0ce8a4"
    )
    assert application_tag(app) == "87394131665d92d9"
    assert checkpoint_fingerprint(
        "fig9a", {"apps": 1, "seed": 3, "execution": "kernel"}
    ) == "b959d816f48ceed1ede3fa927d62af14470e0a0d16d1ad998133b4834878140f"
    journal = JournalingEvaluator(
        None, app, lambda: None, n_scenarios=20, fault_counts=None, seed=5
    )
    assert journal.key_for({"FTSS": root, "FTQS": QSTree(root)}) == (
        "2b08134221623c2d21d56142da3f0ca98ca0f2fb243ebd061edce22e2b0c7740"
    )


def _mixed_utility_app():
    """A hard chain feeding soft processes of every utility kind."""
    from repro.model.application import Application
    from repro.model.graph import ProcessGraph
    from repro.model.process import hard_process, soft_process
    from repro.utility.functions import (
        ConstantUtility,
        LinearUtility,
        StepUtility,
        TabulatedUtility,
    )

    utilities = {
        "S": StepUtility(40, [(90, 25), (160, 5)]),
        "C": ConstantUtility(12.5),
        "K": ConstantUtility(30, cutoff=140),
        "T": TabulatedUtility([(60, 35.5), (120, 20.25), (180, 0.0)]),
        "L": LinearUtility(50.0, 0.3),
    }
    processes = [hard_process("H", bcet=10, wcet=30, deadline=120)] + [
        soft_process(name, 10, 40, utility)
        for name, utility in utilities.items()
    ]
    edges = [("H", "S"), ("H", "T"), ("S", "C"), ("T", "L"), ("C", "K")]
    graph = ProcessGraph(processes, edges, name="mixed", period=260)
    return Application(graph, period=260, k=2, mu=5)


def test_every_utility_kind_matches_the_oracle(kernel_cache):
    """Step, constant (with and without cutoff), tabulated and linear
    utilities give the oracle's values bit for bit through the core."""
    from repro.runtime.online import OnlineScheduler

    _needs_compiler()
    app = _mixed_utility_app()
    tree = _tree(app, schedules=6)
    kernel = KernelSimulator(app, tree)
    assert kernel.engine_used == "kernel"
    oracle = OnlineScheduler(app, tree, record_events=False)
    for _, batch in _batch(app, n=200, seed=7).items():
        result = kernel.run_batch(batch)
        for i in range(batch.n_scenarios):
            outcome = oracle.run(batch.scenario(i))
            assert result.utilities[i] == outcome.utility
            assert result.switch_chains[i] == outcome.switches
    _assert_same_results(app, tree, kernel)


# ----------------------------------------------------------------------
# Cache accounting
# ----------------------------------------------------------------------
def test_cache_counts_compile_then_hits(fig1_app, kernel_cache):
    _needs_compiler()
    import repro.runtime.engine.kernel.dispatch as dispatch

    tree = _tree(fig1_app)
    first = KernelSimulator(fig1_app, tree)
    assert first.engine_used == "kernel"
    assert kernel_stats().compiles == 1
    assert kernel_stats().cache_hits == 0
    # Second construction: tables served from the in-process memo.
    second = KernelSimulator(fig1_app, tree)
    assert second.engine_used == "kernel"
    assert kernel_stats().compiles == 1
    assert kernel_stats().cache_hits == 1
    # Memo cleared: the plan is lowered again, nothing is built.
    dispatch._TABLES.clear()
    third = KernelSimulator(fig1_app, tree)
    assert third.engine_used == "kernel"
    assert kernel_stats().compiles == 1
    assert kernel_stats().cache_hits == 1
    # The cache holds the core and its source, for debugging; no
    # plan's tables.
    assert sorted(p.suffix for p in kernel_cache.iterdir()) == [".c", ".so"]
    assert all(p.name.startswith("core-") for p in kernel_cache.iterdir())


@pytest.mark.parametrize("engine", ["kernel", "reference"])
def test_evaluation_never_builds_switch_chains(engine, kernel_cache,
                                               monkeypatch):
    """An evaluation reads the batch's arrays only: evaluating the
    cruise controller's M=39 tree on 1,000 scenarios per fault count
    never builds a switch-chain tuple, on either engine, although the
    tree switches."""
    from repro.runtime.engine.simulator import BatchResult

    if engine == "kernel":
        _needs_compiler()
    built = []

    def chains(self):
        built.append(self.n_scenarios)
        return []

    monkeypatch.setattr(BatchResult, "switch_chains", property(chains))
    app = cruise_controller()
    plan = ftqs_reference(app, ftss_reference(app),
                          FTQSConfig(max_schedules=39))
    with MonteCarloEvaluator(
        app, n_scenarios=1000, fault_counts=[0, 1, 2], seed=1,
        execution=engine,
    ) as evaluator:
        outcomes = evaluator.evaluate(plan)
    assert built == []
    assert all(outcome.mean_switches > 0 for outcome in outcomes.values())
    assert kernel_stats().fallbacks == {}


def test_lower_plan_rejects_a_plan_flattened_on_another_application():
    """``lower_plan`` derives from a :class:`FlatPlan` of its own
    application's context only."""
    from repro.runtime.engine.kernel.lower import flatten_plan, lower_plan
    from repro.scheduling.compiled import SchedulingContext

    app, twin = paper_fig1_application(), paper_fig1_application()
    plan = ftss_reference(app)
    flat = flatten_plan(SchedulingContext.of(app), plan)
    expected = lower_plan(app, plan).arrays
    lowered = lower_plan(app, flat).arrays
    assert lowered.keys() == expected.keys()
    for name, array in expected.items():
        assert lowered[name].tobytes() == array.tobytes(), name
    with pytest.raises(ValueError, match="another application"):
        lower_plan(twin, flat)


def test_table_memo_is_least_recently_used(fig1_app, kernel_cache,
                                           monkeypatch):
    """Capacity + 1 distinct plans evict the least recently used one;
    a plan re-used in between stays a hit."""
    _needs_compiler()
    import repro.runtime.engine.kernel.dispatch as dispatch
    from repro.scheduling.fschedule import FSchedule

    lowered = []
    lower_plan = dispatch.lower_plan

    def counting(app, flat, core):
        lowered.append(flat.tree.root.schedule.start_time)
        return lower_plan(app, flat, core)

    monkeypatch.setattr(dispatch, "lower_plan", counting)
    root = ftss_reference(fig1_app)
    capacity = dispatch.TABLES_CAPACITY
    plans = [
        FSchedule(fig1_app, root.entries, start_time=start,
                  fault_budget=root.fault_budget)
        for start in range(capacity + 1)
    ]
    for plan in plans[:capacity]:
        assert KernelSimulator(fig1_app, plan).engine_used == "kernel"
    assert KernelSimulator(fig1_app, plans[0]).engine_used == "kernel"
    assert kernel_stats().cache_hits == 1
    KernelSimulator(fig1_app, plans[capacity])
    assert len(dispatch._TABLES) == capacity
    KernelSimulator(fig1_app, plans[0])
    assert kernel_stats().cache_hits == 2
    KernelSimulator(fig1_app, plans[1])
    assert kernel_stats().cache_hits == 2
    assert lowered == list(range(capacity + 1)) + [1]
    assert kernel_stats().fallbacks == {}


def test_one_core_serves_every_plan_across_processes(kernel_cache):
    """One build for three plans; a second process builds nothing,
    lowers its own plans and reproduces every result."""
    _needs_compiler()
    first = _serve_plans()
    assert first["engines"] == ["kernel"] * 3
    assert first["compiles"] == 1
    assert first["cache_hits"] == 0
    assert len(list(kernel_cache.glob("core-*.so"))) == 1
    assert len(list(kernel_cache.iterdir())) == 2

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
        "import test_kernel_engine as t; "
        "t._serve_plans_in_fresh_process()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "REPRO_KERNEL_CACHE": str(kernel_cache)},
    )
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])
    assert second["engines"] == ["kernel"] * 3
    assert second["compiles"] == 0
    assert second["cache_hits"] == 0
    assert second["lowered"] == 3
    assert second["fallbacks"] == {}
    assert second["digest"] == first["digest"]
    assert len(list(kernel_cache.iterdir())) == 2


# ----------------------------------------------------------------------
# Degradation paths
# ----------------------------------------------------------------------
def test_no_compiler_falls_back_with_identical_results(
    fig1_app, kernel_cache, monkeypatch
):
    """$REPRO_CC naming an absent binary = no compiler anywhere."""
    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    tree = _tree(fig1_app)
    simulator = KernelSimulator(fig1_app, tree)
    assert simulator.engine_used == "reference"
    assert simulator.fallback_reason == "no-compiler"
    assert kernel_stats().fallbacks == {"no-compiler": 1}
    assert kernel_stats().compiles == 0
    _assert_same_results(fig1_app, tree, simulator)
    assert not list(kernel_cache.glob("*"))


def test_no_compiler_evaluator_and_jobs_still_complete(
    fig1_app, kernel_cache, monkeypatch
):
    """engine="kernel" without a compiler completes on every path."""
    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    tree = _tree(fig1_app)
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=20, fault_counts=[0, 1], seed=5
    )
    with evaluator:
        by_reference = evaluator.evaluate(tree, execution="reference")
        by_kernel = evaluator.evaluate(tree, execution="kernel")
        sharded = evaluator.evaluate(
            tree, execution="kernel@processes:2"
        )
    for faults in by_reference:
        expected = by_reference[faults]
        assert (
            by_kernel[faults].utilities.tobytes()
            == expected.utilities.tobytes()
        )
        assert (
            sharded[faults].utilities.tobytes()
            == expected.utilities.tobytes()
        )
        assert by_kernel[faults].fallbacks == expected.n_scenarios
    assert kernel_stats().fallbacks.get("no-compiler", 0) >= 1


def test_unusable_cache_degrades_to_the_oracle(
    fig1_app, kernel_cache, monkeypatch, tmp_path
):
    """A kernel cache directory that cannot be created (here: below a
    regular file, which fails for root too) is a counted degradation,
    not a crash — the evaluation answers with the oracle's outcomes."""
    _needs_compiler()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(blocker / "kernels"))
    root = ftss_reference(fig1_app)
    evaluator = MonteCarloEvaluator(fig1_app, n_scenarios=20, seed=5)
    by_kernel = evaluator.evaluate(root, execution="kernel")
    by_reference = evaluator.evaluate(root, execution="reference")
    for faults in by_reference:
        assert (
            by_kernel[faults].utilities.tobytes()
            == by_reference[faults].utilities.tobytes()
        )
    assert kernel_stats().fallbacks == {"cache-unavailable": 1}
    assert kernel_stats().compiles == 0
    simulator = KernelSimulator(fig1_app, root)
    assert simulator.engine_used == "reference"
    assert simulator.fallback_reason == "cache-unavailable"
    _assert_same_results(fig1_app, root, simulator)


def test_failed_build_runs_the_compiler_once(
    fig1_app, kernel_cache, monkeypatch, tmp_path
):
    """A compiler that fails is run once per process: two simulators
    and two ``ftss()`` calls each still count a ``compile-failed``
    fallback, and answer like the oracle."""
    from repro.scheduling.fschedule import FSchedule

    calls = tmp_path / "cc-calls"
    script = tmp_path / "failing-cc"
    script.write_text(f"#!/bin/sh\necho run >> '{calls}'\nexit 1\n")
    script.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(script))
    root = ftss_reference(fig1_app)
    simulators = [KernelSimulator(fig1_app, root) for _ in range(2)]
    schedules = [ftss(fig1_app) for _ in range(2)]
    assert calls.read_text().splitlines() == ["run"]
    assert [s.fallback_reason for s in simulators] == ["compile-failed"] * 2
    assert all(isinstance(s, FSchedule) for s in schedules)
    assert [s.entries for s in schedules] == [root.entries] * 2
    assert kernel_stats().fallbacks == {"compile-failed": 4}
    assert kernel_stats().compiles == 0
    _assert_same_results(fig1_app, root, simulators[1])


def test_chaos_forces_compile_failure_deterministically(
    fig1_app, kernel_cache
):
    """kernel-fail@1 degrades the first build; the second succeeds."""
    _needs_compiler()
    from repro.pipeline import chaos

    tree = _tree(fig1_app)
    plan = chaos.ChaosPlan.parse("kernel-fail@1")
    with chaos.active(plan):
        degraded = KernelSimulator(fig1_app, tree)
        assert degraded.engine_used == "reference"
        assert degraded.fallback_reason == "chaos"
        assert plan.kernel_compiles_seen == 1
        assert plan.kernel_failures_injected == 1
        _assert_same_results(fig1_app, tree, degraded)
        # Attempt 2 is not scheduled to fail: the core gets built.
        recovered = KernelSimulator(fig1_app, tree)
        assert recovered.engine_used == "kernel"
        assert plan.kernel_compiles_seen == 2
        assert plan.kernel_failures_injected == 1
    assert kernel_stats().fallbacks == {"chaos": 1}
    assert kernel_stats().compiles == 1


def test_chaos_parse_kernel_fail_tokens():
    from repro.pipeline import chaos

    plan = chaos.ChaosPlan.parse("kernel-fail@2-4,kernel-fail@7")
    assert plan.kernel_fail == frozenset({2, 3, 4, 7})
    with pytest.raises(ValueError, match="kernel-fail"):
        chaos.ChaosPlan.parse("kernel-fail@4-2")
    with pytest.raises(ValueError, match="kernel-fail"):
        chaos.ChaosPlan.parse("no-such-token@1")


# ----------------------------------------------------------------------
# Stats surface
# ----------------------------------------------------------------------
def test_stats_summary_and_dict_shapes():
    stats = KernelStats()
    assert stats.summary() == "0 compile(s), 0 cache hit(s)"
    stats.compiles = 2
    stats.cache_hits = 3
    stats.count_fallback("no-compiler")
    stats.count_fallback("no-compiler")
    stats.count_fallback("chaos")
    assert stats.n_fallbacks == 3
    assert stats.summary() == (
        "2 compile(s), 3 cache hit(s), 3 fallback(s) "
        "[chaos x1, no-compiler x2]"
    )
    stats.add("oracle_scenarios", 7)
    assert stats.summary().endswith(
        "[chaos x1, no-compiler x2], 7 oracle scenario(s)"
    )
    as_dict = stats.as_dict()
    assert as_dict["compiles"] == 2
    assert as_dict["fallbacks"] == {"no-compiler": 2, "chaos": 1}
    snapshot = stats.snapshot()
    stats.count_fallback("chaos")
    assert snapshot.fallbacks == {"no-compiler": 2, "chaos": 1}


@pytest.mark.parametrize(
    "stats, bump",
    [
        (KernelStats(), lambda stats: stats.add("oracle_scenarios")),
        (ThreadStats(), lambda stats: stats.count_evaluation(1)),
    ],
    ids=["kernel", "threads"],
)
def test_stats_counters_are_thread_safe(stats, bump):
    """8 threads x 20k updates, switching threads as often as the
    interpreter allows, lose no update."""
    threads, updates = 8, 20_000

    def work():
        for _ in range(updates):
            stats.count_fallback("chaos")
            bump(stats)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    total = threads * updates
    assert stats.fallbacks == {"chaos": total}
    if isinstance(stats, KernelStats):
        assert stats.oracle_scenarios == total
    else:
        assert (stats.evaluations, stats.shards) == (total, total)


def test_forked_child_gets_free_locks():
    """A fork while another thread holds the table lock (a service
    request lowering a plan) must not deadlock the child."""
    import repro.runtime.engine.kernel.dispatch as dispatch
    import repro.runtime.engine.threads as threads

    locks = [
        dispatch._LOCK,
        dispatch.kernel_stats()._lock,
        threads.thread_stats()._lock,
    ]
    for lock in locks:
        lock.acquire()
    try:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child exits right away
            free = all(
                lock.acquire(timeout=5)
                for lock in (
                    dispatch._LOCK,
                    dispatch.kernel_stats()._lock,
                    threads.thread_stats()._lock,
                )
            )
            os._exit(0 if free else 1)
    finally:
        for lock in locks:
            lock.release()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_forked_child_loads_the_core_for_synthesis(fig1_app):
    """The design-time entry points look the core lock up per call: a
    child forked while another thread held it (a service request
    loading the core) still gets the core for its FTSS runs."""
    import signal

    import repro.runtime.engine.kernel.dispatch as dispatch
    from repro.scheduling.compiled import SchedulingContext

    _needs_compiler()
    assert SchedulingContext(fig1_app).core.reason is None
    with dispatch._LOCK:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child exits right away
            signal.alarm(10)
            core = SchedulingContext(fig1_app).core
            os._exit(0 if core.reason is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_evaluator_engine_validation(fig1_app):
    """The evaluator takes ``kernel`` as an engine and rejects unknown
    engine names, all through its one ``execution=`` spelling."""
    from repro.errors import RuntimeModelError
    from repro.evaluation.montecarlo import MonteCarloEvaluator
    from repro.execution import ENGINES

    assert "kernel" in ENGINES
    evaluator = MonteCarloEvaluator(
        fig1_app, n_scenarios=2, execution="kernel@threads:2"
    )
    assert evaluator.execution.engine == "kernel"
    with pytest.raises(RuntimeModelError, match="unknown engine"):
        MonteCarloEvaluator(fig1_app, n_scenarios=2, execution="compiled")
