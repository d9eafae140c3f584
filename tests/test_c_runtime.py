"""Differential test: the exported C deliverable against the oracle.

``repro export`` writes the kernel engine's own core (``rk_core.h``,
``rk_core.c``) and one plan's lowered tables (``<symbol>_plan.h``,
``<symbol>_plan.c``).  These tests build exactly those files into a
shared object with the kernel's flags, bind ``<symbol>_plan`` with
``ctypes`` and run ``rk_run`` on scenario batches whose faults land on
every process — soft processes with re-execution allotments included
— at every fault count 0..k.  Per scenario, the utility bits, the
deadline-miss flag, the observed faults and the switch chain must
equal :class:`~repro.runtime.online.OnlineScheduler`'s, and no
scenario may be flagged as outside the core's model.

A tier-1 smoke slice runs by default; ``pytest --engine-full`` adds
bigger trees, more scenarios and more applications.  On a box without
a C compiler the tests skip with ``no C compiler available``.
"""

from __future__ import annotations

import ctypes
import subprocess

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.io.c_export import write_c_tables
from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.hypergraph import ShiftedUtility
from repro.model.process import hard_process
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.quasistatic.tree import QSTree
from repro.runtime.engine import BatchSimulator, ScenarioBatch
from repro.runtime.engine.kernel.build import CFLAGS, find_compiler
from repro.runtime.engine.kernel.dispatch import bind_core, run_core
from repro.runtime.engine.kernel.lower import (
    ARRAYS,
    SCALARS,
    RkPlan,
    lower_plan,
)
from repro.scheduling.ftss import ftss
from repro.utility.functions import ConstantUtility
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application
from test_kernel_engine import _mixed_utility_app

engine_smoke = pytest.mark.engine_smoke


def _tree(app, schedules):
    root = ftss(app)
    assert root is not None
    return ftqs(app, root, FTQSConfig(max_schedules=schedules))


def _build(tmp_path, plans):
    """Export every ``(symbol, app, plan)`` into ``tmp_path`` and link
    the core with all plans into one shared object; returns the library
    and its bound ``rk_run``."""
    compiler = find_compiler()
    if compiler is None:
        pytest.skip("no C compiler available")
    sources = [
        write_c_tables(app, plan, str(tmp_path), symbol=symbol)[3]
        for symbol, app, plan in plans
    ]
    so_path = tmp_path / "plans.so"
    proc = subprocess.run(
        [compiler, *CFLAGS, "-o", str(so_path), str(tmp_path / "rk_core.c"),
         *sources],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lib = ctypes.CDLL(str(so_path))
    return lib, bind_core(lib)


def _soft_with_allotment(app, plan):
    """Process ids of soft processes some node may re-execute."""
    index = {p.name: pid for pid, p in enumerate(app.processes)}
    return sorted(
        {
            index[entry.name]
            for node in plan
            for entry in node.schedule.entries
            if app.process(entry.name).is_soft and entry.reexecutions > 0
        }
    )


def _assert_matches_oracle(lib, run, symbol, app, plan, n, seed):
    """Every scenario through ``<symbol>_plan`` equals the oracle's
    replay bit for bit, and none is flagged."""
    exported = RkPlan.in_dll(lib, f"{symbol}_plan")
    oracle = BatchSimulator(app, plan)
    rng = np.random.default_rng(seed)
    batches = ScenarioBatch.draw(app, n, list(range(app.k + 1)), rng)
    soft_faults = 0
    for faults, batch in batches.items():
        result = run_core(run, exported, batch)
        expected = oracle.run_batch(batch)
        where = f"{symbol} f={faults}"
        assert result.fast_path.all(), where
        assert result.utilities.tobytes() == expected.utilities.tobytes(), where
        assert (result.deadline_miss == expected.deadline_miss).all(), where
        assert (
            result.faults_observed == expected.faults_observed
        ).all(), where
        assert result.switch_counts.tolist() == [
            len(chain) for chain in expected.switch_chains
        ], where
        assert result.switch_chains == expected.switch_chains, where
        soft_faults += int(
            batch.fault_counts[:, _soft_with_allotment(app, plan)].sum()
        )
    return soft_faults


@engine_smoke
@pytest.mark.parametrize("seed", [3, 8])
def test_c_reference_matches_python(tmp_path, engine_full, seed):
    """Generated applications, faults on every process, f = 0..k."""
    app = generate_application(WorkloadSpec(n_processes=10, k=2), seed=seed)
    plan = _tree(app, 10 if engine_full else 4)
    lib, run = _build(tmp_path, [("diff", app, plan)])
    soft_faults = _assert_matches_oracle(
        lib, run, "diff", app, plan, 400 if engine_full else 200, seed
    )
    assert soft_faults > 0


def _corpus(full):
    """(symbol, application, max schedules) of the wider corpus."""
    corpus = [
        ("cruise", cruise_controller(), 8),
        ("mixed", _mixed_utility_app(), 6),
        (
            "wide",
            generate_application(WorkloadSpec(n_processes=70, k=1), seed=5),
            2,
        ),
    ]
    if full:
        corpus += [
            ("cruise39", cruise_controller(), 39),
            (
                "wide_k3",
                generate_application(
                    WorkloadSpec(n_processes=70, k=3), seed=5
                ),
                4,
            ),
            (
                "soft_k3",
                generate_application(
                    WorkloadSpec(n_processes=12, soft_ratio=0.8, k=3),
                    seed=31,
                ),
                12,
            ),
            (
                "all_soft",
                generate_application(
                    WorkloadSpec(n_processes=12, soft_ratio=1.0, k=2),
                    seed=19,
                ),
                12,
            ),
        ]
    return corpus


@engine_smoke
def test_corpus_matches_oracle(tmp_path, engine_full):
    """The cruise controller, every utility kind and a > 64-process
    application (two mask words), all linked into one image."""
    plans = [
        (symbol, app, _tree(app, schedules))
        for symbol, app, schedules in _corpus(engine_full)
    ]
    lib, run = _build(tmp_path, plans)
    for i, (symbol, app, plan) in enumerate(plans):
        _assert_matches_oracle(
            lib, run, symbol, app, plan, 300 if engine_full else 100, i
        )
    assert RkPlan.in_dll(lib, "wide_plan").nw == 2


def test_one_node_tree(tmp_path, fig1_app):
    """A static schedule has no switch arcs: the empty ``arcs`` table
    becomes a placeholder that is never read."""
    plan = QSTree(ftss(fig1_app))
    assert len(lower_plan(fig1_app, plan).arrays["arcs"]) == 0
    lib, run = _build(tmp_path, [("single", fig1_app, plan)])
    _assert_matches_oracle(lib, run, "single", fig1_app, plan, 100, 1)


def _all_hard_app():
    """Hard processes without dependences: no soft decision and no
    predecessor tables."""
    processes = [
        hard_process(f"H{i}", bcet=10, wcet=30, deadline=200)
        for i in range(4)
    ]
    graph = ProcessGraph(processes, [], name="hard", period=260)
    return Application(graph, period=260, k=2, mu=5)


def test_all_hard_application(tmp_path):
    app = _all_hard_app()
    plan = QSTree(ftss(app))
    arrays = lower_plan(app, plan).arrays
    for name in ("thr", "pred"):
        assert len(arrays[name]) == 0, name
    lib, run = _build(tmp_path, [("hard", app, plan)])
    _assert_matches_oracle(lib, run, "hard", app, plan, 100, 2)


def test_two_symbols_link_into_one_image(tmp_path, fig1_app):
    """Two plans of one application side by side in one image."""
    plans = [
        ("root", fig1_app, QSTree(ftss(fig1_app))),
        ("tree", fig1_app, _tree(fig1_app, 6)),
    ]
    lib, run = _build(tmp_path, plans)
    for i, (symbol, app, plan) in enumerate(plans):
        _assert_matches_oracle(lib, run, symbol, app, plan, 100, i)
    assert (
        RkPlan.in_dll(lib, "root_plan").n_nodes
        < RkPlan.in_dll(lib, "tree_plan").n_nodes
    )


def test_exported_tables_equal_lower_plan(tmp_path, cc_app):
    """The tables read back through ``<symbol>_plan`` are
    ``lower_plan``'s arrays byte for byte."""
    plan = _tree(cc_app, 8)
    arrays = lower_plan(cc_app, plan).arrays
    lib, _ = _build(tmp_path, [("cruise", cc_app, plan)])
    exported = RkPlan.in_dll(lib, "cruise_plan")
    assert [getattr(exported, name) for name in SCALARS] == (
        arrays["header"].tolist()
    )
    for name, *_ in ARRAYS:
        expected = arrays[name].tobytes()
        address = getattr(exported, name)
        assert ctypes.string_at(address, len(expected)) == expected, name


def test_unsupported_utility_raises_cleanly(tmp_path, fig1_soft_utility_app):
    """A utility the core cannot express is a SerializationError that
    names the reason, and nothing is written."""
    app = fig1_soft_utility_app(ShiftedUtility(ConstantUtility(10.0), 5))
    out = tmp_path / "out"
    with pytest.raises(SerializationError, match="unsupported-utility"):
        write_c_tables(app, QSTree(ftss(app)), str(out))
    assert not out.exists()
