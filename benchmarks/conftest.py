"""Benchmark options and the shared trajectory fixture.

``--full-scale`` switches every experiment bench to the paper's §6
parameters (450 applications, 20,000 scenarios per fault count, the
full Table 1 M sweep).  The default scales are chosen so the whole
benchmark suite finishes in minutes while preserving the paper's
qualitative shapes.

``--record`` appends each throughput bench's measured axes to its
``BENCH_*.json`` trajectory artifact.  Floors are asserted on every
run; only recording is opt-in, so a plain run leaves the worktree
clean.
"""

import json
import os
import time

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: seconds-long engine-throughput slice safe for "
        "tier 1 (select with `pytest -m bench_smoke`)",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--full-scale",
        action="store_true",
        default=False,
        help="run experiment benches at the paper's full §6 scale (slow)",
    )
    parser.addoption(
        "--record",
        action="store_true",
        default=False,
        help="append the measured axes to the BENCH_*.json trajectories",
    )


@pytest.fixture(scope="session")
def full_scale(request):
    return request.config.getoption("--full-scale")


@pytest.fixture(scope="module")
def trajectory(request):
    """Collect per-axis rows; with ``--record``, append them as one run
    entry to the module's ``_ARTIFACT`` trajectory file."""
    rows = []
    yield rows
    if not rows or not request.config.getoption("--record"):
        return
    artifact = request.module._ARTIFACT
    history = []
    if artifact.exists():
        try:
            history = json.loads(artifact.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "cpu_count": os.cpu_count(),
            "axes": rows,
        }
    )
    artifact.write_text(json.dumps(history, indent=2) + "\n")
