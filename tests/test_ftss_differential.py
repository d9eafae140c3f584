"""Differential corpus: the routed ``ftss`` vs the FTSS oracle.

``repro.scheduling.ftss.ftss`` runs ``fast_paths=True`` configurations
on the compiled list scheduler (:mod:`repro.scheduling.compiled`);
``ftss_reference`` is the oracle.  Every result must be *identical* —
entries and re-execution caps, start time, fault budget, prior sets
and slack sharing, or ``None`` on both — over generated applications ×
fault budgets × start times × prior sets × ablation configs, and every
malformed input must raise the same exception type on both.

A tier-1-safe smoke slice runs by default;
``pytest tests/test_ftss_differential.py --synthesis-full`` runs the
full corpus (10-50 processes, k = 0..4, the cruise controller).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.errors import ModelError, SchedulingError, UtilityError
from repro.scheduling.compiled import SchedulingContext, TailRun
from repro.scheduling.ftss import FTSSConfig, ftss, ftss_reference
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


def check_application(app, seed, label):
    rng = np.random.default_rng(seed)
    compared = 0
    for config_name in CONFIGS:
        for kwargs in cases(app, config_name, rng):
            assert_same(app, f"{label} [{config_name}]", **kwargs)
            compared += 1
    return compared


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
def test_corpus_schedules_identical(n_processes, k, seed, smoke, synthesis_full):
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


def test_cruise_controller_identical(synthesis_full):
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


def test_paper_examples_identical(fig1_app, fig8_app):
    for seed, app in enumerate((fig1_app, fig8_app)):
        check_application(app, seed, app.graph.name)


# ----------------------------------------------------------------------
# Malformed inputs: the same result or exception type on both engines
# ----------------------------------------------------------------------
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
def test_edge_cases_match(fig8_app, label, kwargs, expected):
    kind, value = assert_same(fig8_app, label, **kwargs)
    if isinstance(expected, type):
        assert (kind, value) == ("raise", expected)
    elif expected is None:
        assert (kind, value) == ("ok", None)
    else:
        assert kind == "ok" and value is not None
        assert (len(value[0]) == 0) == (expected == "empty")


def test_budget_as_string_is_accepted(fig8_app):
    """``int(fault_budget)`` on both engines: ``"2"`` is budget 2."""
    expected = schedule_fingerprint(ftss_reference(fig8_app, fault_budget=2))
    assert expected is not None
    assert_same(fig8_app, "budget '2'", fault_budget="2")
    assert schedule_fingerprint(ftss(fig8_app, fault_budget="2")) == expected


@pytest.mark.parametrize("engine", [ftss, ftss_reference])
def test_unknown_prior_name_raises_scheduling_error(fig8_app, engine):
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
# The compiled pieces
# ----------------------------------------------------------------------
def test_one_context_serves_every_config():
    """The context's memos do not depend on the FTSS config: runs of
    different configs on one context, in any order, give what a fresh
    context per run gives."""
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
        expected = TailRun(
            fresh, config, budget, start, fresh.mask(completed), 0
        ).run()
        got = TailRun(
            shared, config, budget, start, shared.mask(completed), 0
        ).run()
        assert schedule_fingerprint(got) == schedule_fingerprint(expected)
        assert schedule_fingerprint(got) == schedule_fingerprint(
            ftss_reference(
                app,
                fault_budget=budget,
                start_time=start,
                prior_completed=completed,
                config=config,
            )
        )
