"""Differential corpus: the routed ``ftss`` vs the FTSS oracle.

``repro.scheduling.ftss.ftss`` runs ``fast_paths=True`` configurations
in the C core, one ``rk_ftss`` call per run; ``ftss_reference`` is the
oracle.  Every result must be *identical* — entries and re-execution
caps, start time, fault budget, prior sets and slack sharing, or
``None`` on both — over generated applications × fault budgets × start
times × prior sets × ablation configs, and every malformed input must
raise the same exception type on both.

The comparisons must run the C path: the ``c_path`` fixture skips a
test with ``kernel engine unavailable`` when no core loads here, and
fails it when a fallback it does not expect is counted — otherwise a
fallback would compare the oracle with itself.  Without a compiler,
``test_no_compiler_runs_the_oracles`` pins the counted fallback.

A tier-1-safe smoke slice runs by default (it includes an application
of more than 64 processes, whose sets take two mask words, and one
with linear, constant and tabulated utilities);
``pytest tests/test_ftss_differential.py --synthesis-full`` runs the
full corpus (10-50 processes, k = 0..4, the cruise controller).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.errors import ModelError, SchedulingError, UtilityError
from repro.io.json_io import tree_to_dict
from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.process import soft_process
from repro.quasistatic.ftqs import FTQSConfig, ftqs, ftqs_reference
from repro.runtime.engine.kernel import kernel_stats
from repro.scheduling.compiled import SchedulingContext
from repro.scheduling.ftss import (
    FTSSConfig,
    ftss,
    ftss_compiled,
    ftss_reference,
)
from repro.utility.functions import (
    ConstantUtility,
    LinearUtility,
    TabulatedUtility,
)
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application

#: The six configurations the corpus runs; "nft" is FTSF's first stage
#: (``nft_schedule``), which always runs with ``fault_budget=0``.
CONFIGS = {
    "default": FTSSConfig(),
    "nft": FTSSConfig(soft_reexecution=False),
    "no-dropping": FTSSConfig(drop_heuristic=False),
    "no-soft-reexecution": FTSSConfig(soft_reexecution=False),
    "private-slack": FTSSConfig(slack_sharing=False),
    "wcet-opt": FTSSConfig(optimize_for="wcet"),
}


def schedule_fingerprint(schedule):
    """Every field of an FTSS result (``None`` stays ``None``)."""
    if schedule is None:
        return None
    return (
        tuple((e.name, e.reexecutions) for e in schedule.entries),
        schedule.start_time,
        schedule.fault_budget,
        schedule.prior_completed,
        schedule.prior_dropped,
        schedule.slack_sharing,
    )


def outcome(run):
    """``("ok", fingerprint)`` or ``("raise", exception type)``."""
    try:
        return ("ok", schedule_fingerprint(run()))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raise", type(exc))


def assert_same(app, label, **kwargs):
    """Both engines on one call; returns the shared outcome."""
    reference = outcome(lambda: ftss_reference(app, **kwargs))
    fast = outcome(lambda: ftss(app, **kwargs))
    assert fast == reference, (
        f"{label} {kwargs}\n  reference: {reference}\n  fast:      {fast}"
    )
    return reference


def cases(app, config_name, rng):
    """FTSS calls of one application under one config: roots at
    several budgets and start times, then tails after prefixes of the
    reference root at their WCET clock, with and without soft
    processes already dropped."""
    config = CONFIGS[config_name]
    budgets = [0] if config_name == "nft" else sorted({app.k, max(app.k - 1, 0), 0})
    top = budgets[-1]
    for budget in budgets:
        yield dict(fault_budget=budget, config=config)
    for start in (app.period // 10, app.period // 3):
        yield dict(fault_budget=top, start_time=start, config=config)
    root = ftss_reference(app, fault_budget=top, config=config)
    if root is None or len(root) < 2:
        return
    entries = root.entries
    for cut in sorted({1, len(entries) // 2, len(entries) - 1}):
        prefix = [e.name for e in entries[:cut]]
        clock = sum(app.process(name).wcet for name in prefix)
        for budget in budgets:
            yield dict(
                fault_budget=budget,
                start_time=clock,
                prior_completed=prefix,
                config=config,
            )
        soft_left = [p.name for p in app.soft if p.name not in prefix]
        if soft_left:
            count = int(rng.integers(1, min(3, len(soft_left)) + 1))
            dropped = [
                str(name)
                for name in rng.choice(soft_left, count, replace=False)
            ]
            yield dict(
                fault_budget=top,
                start_time=clock,
                prior_completed=prefix,
                prior_dropped=dropped,
                config=config,
            )


def check_application(app, seed, label, configs=tuple(CONFIGS)):
    rng = np.random.default_rng(seed)
    compared = 0
    for config_name in configs:
        for kwargs in cases(app, config_name, rng):
            assert_same(app, f"{label} [{config_name}]", **kwargs)
            compared += 1
    return compared


def mixed_utility_app(seed):
    """A generated application whose soft utilities become linear,
    constant with a cutoff and tabulated (with a sample at 0) in turn,
    at their original levels and horizons."""
    app = generate_application(
        WorkloadSpec(n_processes=14, k=2, mu=15),
        rng=np.random.default_rng(seed),
    )
    processes = []
    for index, proc in enumerate(app.processes):
        if proc.is_hard:
            processes.append(proc)
            continue
        top = proc.utility.max_value()
        horizon = max(proc.utility.horizon(), 4)
        utility = (
            LinearUtility(top, top / (2 * horizon)),
            ConstantUtility(top, cutoff=horizon),
            TabulatedUtility(
                [(0, top), (horizon // 2, top / 2), (horizon, top / 4)]
            ),
        )[index % 3]
        processes.append(
            soft_process(proc.name, proc.bcet, proc.wcet, utility,
                         aet=proc.aet,
                         recovery_overhead=proc.recovery_overhead)
        )
    graph = ProcessGraph(processes, list(app.graph.edges), period=app.period)
    return Application(graph, period=app.period, k=app.k, mu=app.mu)


#: (n_processes, k, seed, part of the tier-1 smoke slice)
CORPUS = [(10, 1, 11, True), (14, 2, 12, True), (12, 0, 13, True)] + [
    (n, k, 100 * n + k, False)
    for n in (10, 20, 30, 40, 50)
    for k in range(5)
]


@pytest.mark.parametrize(
    "n_processes,k,seed,smoke",
    CORPUS,
    ids=[f"n{n}k{k}s{s}" for n, k, s, _ in CORPUS],
)
def test_corpus_schedules_identical(
    n_processes, k, seed, smoke, synthesis_full, c_path
):
    if not smoke and not synthesis_full:
        pytest.skip("full corpus runs with --synthesis-full")
    rng = np.random.default_rng(seed)
    spec = WorkloadSpec(n_processes=n_processes, k=k, mu=15)
    # Prefer an application with a feasible root (it yields the
    # prior-set cases); an unschedulable one still compares roots.
    for _ in range(6):
        app = generate_application(spec, rng=rng)
        if ftss_reference(app) is not None:
            break
    assert check_application(app, seed, f"n={n_processes} k={k}") > 0


def test_two_mask_words_identical(synthesis_full, c_path):
    """More than 64 processes: every set takes two mask words."""
    app = generate_application(
        WorkloadSpec(n_processes=70, k=2, mu=15),
        rng=np.random.default_rng(70),
    )
    assert len(app.processes) > 64
    configs = tuple(CONFIGS) if synthesis_full else ("default",)
    assert check_application(app, 70, "n=70 k=2", configs) > 0


def test_every_utility_kind_identical(c_path):
    """Linear, constant-with-cutoff and tabulated soft utilities."""
    app = mixed_utility_app(2026)
    assert ftss_reference(app) is not None
    assert check_application(app, 2026, "mixed utilities") > 0


def test_cruise_controller_identical(synthesis_full, c_path):
    app = cruise_controller()
    if synthesis_full:
        check_application(app, 2008, "cruise controller")
        return
    for config_name in ("default", "nft"):
        config = CONFIGS[config_name]
        budget = 0 if config_name == "nft" else app.k
        assert_same(
            app, f"cruise controller [{config_name}]",
            fault_budget=budget, config=config,
        )


def test_paper_examples_identical(fig1_app, fig8_app, c_path):
    for seed, app in enumerate((fig1_app, fig8_app)):
        check_application(app, seed, app.graph.name)


# ----------------------------------------------------------------------
# Malformed inputs: the same result or exception type on both engines
# ----------------------------------------------------------------------
#: The C path's fallback reason of each case that has one: there the
#: routed ``ftss`` runs the oracle.
FALLBACKS = {
    "hard dropped name": "hard-dropped",
    "negative start": "negative-start",
    "negative completions": "negative-start",
}

EDGE_CASES = [
    ("unknown dropped name", dict(prior_dropped=["NOPE"]), ModelError),
    ("hard dropped name", dict(prior_dropped=["P1"]), ModelError),
    ("negative budget", dict(fault_budget=-1), SchedulingError),
    ("budget above k", dict(fault_budget=5), None),
    ("negative start", dict(start_time=-10), "schedule"),
    ("negative completions", dict(start_time=-1000), UtilityError),
    ("start beyond the period", dict(start_time=221), None),
    (
        "everything completed",
        dict(prior_completed=["P1", "P2", "P3", "P4", "P5"]),
        "empty",
    ),
    (
        "completed and dropped",
        dict(prior_completed=["P2"], prior_dropped=["P2"]),
        SchedulingError,
    ),
    ("unknown completed name", dict(prior_completed=["NOPE"]), SchedulingError),
]


@pytest.mark.parametrize(
    "label,kwargs,expected", EDGE_CASES, ids=[c[0] for c in EDGE_CASES]
)
def test_edge_cases_match(fig8_app, label, kwargs, expected, c_path):
    if label in FALLBACKS:
        c_path[FALLBACKS[label]] = 1
    kind, value = assert_same(fig8_app, label, **kwargs)
    if isinstance(expected, type):
        assert (kind, value) == ("raise", expected)
    elif expected is None:
        assert (kind, value) == ("ok", None)
    else:
        assert kind == "ok" and value is not None
        assert (len(value[0]) == 0) == (expected == "empty")


def test_budget_as_string_is_accepted(fig8_app, c_path):
    """``int(fault_budget)`` on both engines: ``"2"`` is budget 2."""
    expected = schedule_fingerprint(ftss_reference(fig8_app, fault_budget=2))
    assert expected is not None
    assert_same(fig8_app, "budget '2'", fault_budget="2")
    assert schedule_fingerprint(ftss(fig8_app, fault_budget="2")) == expected


@pytest.mark.parametrize("engine", [ftss, ftss_reference])
def test_unknown_prior_name_raises_scheduling_error(fig8_app, engine, c_path):
    with pytest.raises(SchedulingError, match="NOPE"):
        engine(fig8_app, prior_completed=["P1", "NOPE"])


def test_slow_paths_route_to_the_reference(fig8_app, monkeypatch):
    """``fast_paths=False`` runs the oracle, which the compiled engine
    never does."""
    # The package re-exports the function under the module's name.
    module = importlib.import_module("repro.scheduling.ftss")
    calls = []
    original = module.ftss_reference
    monkeypatch.setattr(
        module,
        "ftss_reference",
        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs),
    )
    ftss(fig8_app)
    assert calls == []
    ftss(fig8_app, config=FTSSConfig(fast_paths=False))
    assert calls == [1]


# ----------------------------------------------------------------------
# The compiled context
# ----------------------------------------------------------------------
def test_threads_sharing_an_application_match_a_serial_run(c_path):
    """Eight threads running ``ftss`` on one application — so on its
    one context and the core's work buffers behind it — each in its own
    order, give exactly what a serial run on a separate copy gives."""
    import pickle
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(2024)
    app = generate_application(
        WorkloadSpec(n_processes=24, k=3, mu=15), rng=rng
    )
    root = ftss_reference(app)
    assert root is not None
    prefix = [e.name for e in root.entries[:4]]
    clock = sum(app.process(name).wcet for name in prefix)
    runs = [
        (config, budget, start, completed)
        for config in CONFIGS.values()
        for budget, start, completed in (
            (app.k, 0, ()), (1, 0, ()), (app.k - 1, clock, prefix),
        )
    ]

    def run(target, order):
        return [
            schedule_fingerprint(
                ftss(target, fault_budget=budget, start_time=start,
                     prior_completed=completed, config=config)
            )
            for config, budget, start, completed in (runs[i] for i in order)
        ]

    serial = run(pickle.loads(pickle.dumps(app)), range(len(runs)))
    orders = [
        np.random.default_rng(seed).permutation(len(runs)).tolist()
        for seed in range(8)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(lambda order: (order, run(app, order * 20)), orders)
        )
    for order, fingerprints in results:
        assert fingerprints == [serial[i] for i in order * 20]


def test_one_context_serves_every_config(c_path):
    """A context holds nothing of the FTSS config: runs of different
    configs on one context, in any order, give what a fresh context
    per run gives."""
    rng = np.random.default_rng(77)
    app = generate_application(
        WorkloadSpec(n_processes=16, k=2, mu=15), rng=rng
    )
    shared = SchedulingContext(app)
    root = ftss_reference(app)
    assert root is not None
    prefix = [e.name for e in root.entries[:3]]
    clock = sum(app.process(name).wcet for name in prefix)
    runs = [
        (config, budget, start, completed)
        for config in CONFIGS.values()
        for budget, start, completed in (
            (app.k, 0, ()),
            (0, 0, ()),
            (app.k - 1, clock, prefix),
        )
    ]
    for config, budget, start, completed in runs + runs[::-1]:
        fresh = SchedulingContext(app)
        expected = ftss_compiled(
            fresh, config, budget, start, fresh.mask(completed), 0
        )
        raw = ftss_compiled(
            shared, config, budget, start, shared.mask(completed), 0
        )
        assert raw == expected
        got = None
        if raw is not None and raw.latest is not None:
            got = shared.schedule(
                raw, budget, start, shared.mask(completed), 0,
                config.slack_sharing,
            )
            assert raw.latest == shared.latest_start(got)
        assert schedule_fingerprint(got) == schedule_fingerprint(
            ftss_reference(
                app,
                fault_budget=budget,
                start_time=start,
                prior_completed=completed,
                config=config,
            )
        )


# ----------------------------------------------------------------------
# Without a compiler
# ----------------------------------------------------------------------
def test_no_compiler_runs_the_oracles(fig1_app, kernel_cache, monkeypatch):
    """No compiler anywhere: ``ftss`` and the fast FTQS build answer
    exactly like the oracles, and every run and profile that fell back
    is counted under ``no-compiler``."""
    monkeypatch.setenv("REPRO_CC", "definitely-not-a-compiler")
    for app in (fig1_app, mixed_utility_app(2026)):
        for budget in range(app.k + 1):
            assert schedule_fingerprint(
                ftss(app, fault_budget=budget)
            ) == schedule_fingerprint(ftss_reference(app, fault_budget=budget))
    runs = kernel_stats().snapshot().fallbacks
    assert set(runs) == {"no-compiler"} and runs["no-compiler"] >= 4
    root = ftss_reference(fig1_app)
    config = FTQSConfig(max_schedules=6)
    assert tree_to_dict(ftqs(fig1_app, root, config)) == tree_to_dict(
        ftqs_reference(fig1_app, root, config)
    )
    builds = kernel_stats().snapshot().fallbacks
    assert set(builds) == {"no-compiler"}
    assert builds["no-compiler"] > runs["no-compiler"]
    assert kernel_stats().compiles == 0
    assert not list(kernel_cache.glob("*"))
