"""Repo-wide pytest options and fixtures.

``--synthesis-full`` is registered here (rather than in
``tests/conftest.py`` or ``benchmarks/conftest.py``) because both
suites consume it: the synthesis differential corpus
(``tests/test_synthesis_differential.py``) expands from its tier-1
smoke slice to the full randomized corpus, and the synthesis bench
(``benchmarks/test_bench_synthesis.py``) extends the measured Table 1
tree-size axis to the paper's full M sweep.

Every default evaluation runs the kernel engine, which writes its
core to ``$REPRO_KERNEL_CACHE``; one temporary directory for the whole
test run keeps it out of the user's ``~/.cache``.
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--synthesis-full",
        action="store_true",
        default=False,
        help="run the full synthesis differential corpus / bench axes "
        "(slow); the default is a tier-1-safe smoke slice",
    )


@pytest.fixture(scope="session")
def synthesis_full(request):
    """True when ``--synthesis-full`` was passed (full corpus opt-in)."""
    return request.config.getoption("--synthesis-full")


@pytest.fixture(scope="session", autouse=True)
def _session_kernel_cache(tmp_path_factory):
    """Point ``$REPRO_KERNEL_CACHE`` at a temporary directory for the
    whole session (subprocesses and workers inherit it)."""
    saved = os.environ.get("REPRO_KERNEL_CACHE")
    os.environ["REPRO_KERNEL_CACHE"] = str(tmp_path_factory.mktemp("kernels"))
    yield
    if saved is None:
        os.environ.pop("REPRO_KERNEL_CACHE", None)
    else:
        os.environ["REPRO_KERNEL_CACHE"] = saved
