"""Shared fixtures: the paper's worked examples and small generated
applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.examples_support import (
    paper_fig1_application,
    paper_fig8_application,
)
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "engine_smoke: tier-1-safe slice of the kernel-vs-oracle "
        "differential corpus (full corpus via --engine-full)",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--engine-full",
        action="store_true",
        default=False,
        help="run the full kernel-vs-oracle differential corpus "
        "(slow); the default is a tier-1-safe smoke slice",
    )


@pytest.fixture(scope="session")
def engine_full(request):
    """True when ``--engine-full`` was passed (full corpus opt-in)."""
    return request.config.getoption("--engine-full")


@pytest.fixture
def fig1_app():
    """Application A of Fig. 1 (T = 300, k = 1, µ = 10)."""
    return paper_fig1_application()

@pytest.fixture
def fig1_soft_utility_app(fig1_app):
    """Builds Fig. 1's application with ``utility`` on every soft
    process (utilities the C core or a C literal cannot express)."""
    from repro.model.application import Application
    from repro.model.graph import ProcessGraph
    from repro.model.process import soft_process

    def build(utility):
        processes = [
            soft_process(p.name, p.bcet, p.wcet, utility) if p.is_soft else p
            for p in fig1_app.processes
        ]
        graph = ProcessGraph(processes, list(fig1_app.graph.edges),
                             period=fig1_app.period)
        return Application(graph, period=fig1_app.period, k=fig1_app.k,
                           mu=fig1_app.mu)

    return build


@pytest.fixture
def fig1_overload_app():
    """Fig. 4c variant: period reduced to 250."""
    return paper_fig1_application(period=250)


@pytest.fixture
def fig8_app():
    """Application A / G2 of Fig. 8 (k = 2, µ = 10, T = 220)."""
    return paper_fig8_application()


@pytest.fixture(scope="session")
def cc_app():
    """The 32-process cruise controller."""
    return cruise_controller()


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An isolated kernel artifact cache with zeroed process state.

    Points ``$REPRO_KERNEL_CACHE`` at a per-test directory and unloads
    the in-process core, table memo and global stats, so each test
    observes its own core build, table hits and fallbacks; all are
    restored after.
    """
    import repro.runtime.engine.kernel.dispatch as dispatch

    path = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(path))
    monkeypatch.setattr(dispatch, "_CORE", None)
    saved = dict(dispatch._TABLES)
    dispatch._TABLES.clear()
    dispatch.reset_kernel_stats()
    yield path
    dispatch._TABLES.clear()
    dispatch._TABLES.update(saved)
    dispatch.reset_kernel_stats()


@pytest.fixture
def c_path():
    """The design-time C path must run: skip the test with ``kernel
    engine unavailable`` when no core loads here, and after it fail
    unless the fallbacks counted during it are exactly those it put in
    the yielded dict (reason -> count) — a fallback would compare an
    oracle with itself."""
    from repro.runtime.engine.kernel import kernel_stats
    from repro.scheduling.compiled import SchedulingContext

    reason = SchedulingContext(cruise_controller()).core.reason
    if reason is not None:
        pytest.skip(f"kernel engine unavailable ({reason})")
    before = kernel_stats().snapshot().fallbacks
    expected = {}
    yield expected
    after = kernel_stats().snapshot().fallbacks
    counted = {
        reason: count - before.get(reason, 0)
        for reason, count in after.items()
        if count != before.get(reason, 0)
    }
    assert counted == expected, "the C path fell back"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_app():
    """A seeded 12-process generated application."""
    return generate_application(WorkloadSpec(n_processes=12), seed=99)


@pytest.fixture
def medium_app():
    """A seeded 20-process generated application."""
    return generate_application(WorkloadSpec(n_processes=20), seed=7)
