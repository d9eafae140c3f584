"""The ``repro serve`` HTTP service, tested against a real socket.

Every test boots a :class:`~repro.service.server.ServiceHandle` on an
ephemeral port (``port=0``) and talks plain :mod:`urllib` — the same
wire path a production client uses — then asserts the robustness
contracts of the ISSUE: the stable error taxonomy, bounded-queue
backpressure, per-request deadlines, degradation visibility on
``/readyz``, graceful drain, and the byte-identity + store-hit
guarantees that make the service the CLI's pipeline behind a socket.
"""

import copy
import functools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from contextlib import contextmanager

import pytest

from repro.examples_support import paper_fig1_application
from repro.io.json_io import application_to_dict
from repro.pipeline import chaos
from repro.pipeline.store import (
    MemoryBackend,
    ResilientBackend,
    RetryPolicy,
    TreeStore,
)
from repro.service import ServiceConfig, ServiceHandle


@contextmanager
def service(**overrides):
    """A running service on an ephemeral port (store defaults to a
    fresh in-memory backend so store assertions are hermetic)."""
    if "store" not in overrides:
        overrides["store"] = TreeStore(backend=MemoryBackend())
    config = ServiceConfig(port=0, **overrides)
    with ServiceHandle(config) as handle:
        yield handle


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def http_post(url, document, timeout=30):
    payload = (
        document if isinstance(document, bytes) else json.dumps(document).encode()
    )
    request = urllib.request.Request(url, data=payload, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def error_code(body):
    return json.loads(body)["error"]["code"]


@pytest.fixture
def fig1_payload():
    return {
        "application": application_to_dict(paper_fig1_application()),
        "max_schedules": 4,
    }


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def test_probes_and_metrics(fig1_payload):
    with service() as handle:
        status, body, _ = http_get(handle.url + "/healthz")
        assert status == 200 and json.loads(body)["status"] == "alive"
        status, body, _ = http_get(handle.url + "/readyz")
        assert status == 200 and json.loads(body) == {
            "ready": True, "reasons": [],
        }
        # Trailing slash and query strings route like the bare path.
        assert http_get(handle.url + "/healthz/?probe=1")[0] == 200

        http_post(handle.url + "/v1/schedule", fig1_payload)
        status, body, _ = http_get(handle.url + "/metrics")
        metrics = json.loads(body)
        assert status == 200
        assert metrics["queue"]["completed"] == 1
        assert metrics["requests"]["/v1/schedule"]["requests"] == 1
        assert metrics["synthesis"]["trees_built"] == 1
        assert metrics["store"]["backend"] == "memory"
        assert metrics["pool"]["pool_degradations"] == 0
        # The kernel-engine counters are always exported, even when the
        # service never simulates (all zeros in that case).
        assert set(metrics["kernel"]) == {
            "compiles", "cache_hits", "fallbacks", "oracle_scenarios",
        }
        # So are the execution-routing counters: the configured
        # executor spec plus the threaded executor's activity.
        assert metrics["execution"]["executor"] == "kernel"
        assert set(metrics["execution"]["threads"]) == {
            "evaluations", "shards", "fallbacks",
        }


# ----------------------------------------------------------------------
# The error taxonomy: every failure is a structured JSON document
# with a stable code — never a traceback or a dropped connection.
# ----------------------------------------------------------------------
def test_error_taxonomy_stable_codes(fig1_payload):
    with service(max_body=50_000) as handle:
        url = handle.url
        status, body, _ = http_get(url + "/nope")
        assert (status, error_code(body)) == (404, "not-found")

        status, body, _ = http_post(url + "/healthz", {})
        assert (status, error_code(body)) == (405, "method-not-allowed")

        status, body, _ = http_post(url + "/v1/schedule", b"{not json")
        assert (status, error_code(body)) == (400, "invalid-request")

        status, body, _ = http_post(url + "/v1/schedule", {"config": {}})
        assert (status, error_code(body)) == (400, "invalid-request")
        assert "application" in json.loads(body)["error"]["message"]

        status, body, _ = http_post(
            url + "/v1/schedule",
            {"application": fig1_payload["application"],
             "config": {"max_scheduless": 4}},
        )
        assert (status, error_code(body)) == (400, "invalid-request")
        assert "max_scheduless" in json.loads(body)["error"]["message"]

        # Valid JSON, invalid model: BCET above WCET.
        broken = copy.deepcopy(fig1_payload)
        broken["application"]["graph"]["processes"][0]["bcet"] = 999
        status, body, _ = http_post(url + "/v1/schedule", broken)
        assert (status, error_code(body)) == (400, "invalid-application")

        # Valid model, no feasible root schedule: each hard process
        # fits its own k=1 worst case, but one fault on whichever runs
        # first pushes the other past its deadline — a property of the
        # input (422), not a server fault (500).
        doomed = {
            "application": {
                "version": 1, "period": 400, "k": 1, "mu": 10,
                "graph": {
                    "name": "doomed",
                    "processes": [
                        {"name": "P1", "bcet": 30, "wcet": 70,
                         "aet": 50, "kind": "hard", "deadline": 150},
                        {"name": "P2", "bcet": 30, "wcet": 70,
                         "aet": 50, "kind": "hard", "deadline": 150},
                    ],
                    "edges": [],
                },
            },
        }
        status, body, _ = http_post(url + "/v1/schedule", doomed)
        assert (status, error_code(body)) == (422, "unschedulable")

        status, body, _ = http_post(url + "/v1/schedule", b"x" * 60_000)
        assert (status, error_code(body)) == (413, "payload-too-large")
        # The connection was dropped (unread body), but the server
        # keeps serving new connections.
        assert http_get(url + "/healthz")[0] == 200


def test_fractional_timing_is_invalid_application(fig1_payload):
    """A process with a fractional AET fails the model checks: 400
    ``invalid-application``, naming the field."""
    broken = copy.deepcopy(fig1_payload)
    broken["application"]["graph"]["processes"][0]["aet"] = 17.5
    with service() as handle:
        status, body, _ = http_post(handle.url + "/v1/schedule", broken)
    assert (status, error_code(body)) == (400, "invalid-application")
    assert "aet" in json.loads(body)["error"]["message"]


def test_fractional_application_field_is_invalid_application(fig1_payload):
    """A fractional µ, k or period fails the model checks too: 400
    ``invalid-application``, naming the field."""
    with service() as handle:
        for field, value, label in (
            ("mu", 2.5, "recovery overhead"),
            ("k", 1.9, "fault budget k"),
            ("period", 300.7, "period"),
        ):
            broken = copy.deepcopy(fig1_payload)
            broken["application"][field] = value
            status, body, _ = http_post(
                handle.url + "/v1/schedule", broken
            )
            assert (status, error_code(body)) == (
                400, "invalid-application"
            ), field
            assert label in json.loads(body)["error"]["message"]


# ----------------------------------------------------------------------
# Caching: the second identical request is 100% store hits, zero
# rebuilds, and the bytes are identical.
# ----------------------------------------------------------------------
def test_repeat_schedule_is_all_hits_zero_rebuilds(fig1_payload):
    with service() as handle:
        url = handle.url + "/v1/schedule"
        status, first, headers = http_post(url, fig1_payload)
        assert status == 200
        assert headers["X-Repro-Store"] == "miss"
        status, second, headers = http_post(url, fig1_payload)
        assert status == 200
        assert headers["X-Repro-Store"] == "hit"
        assert int(headers["X-Repro-Tree-Nodes"]) >= 1
        assert second == first  # byte-identical replay

        metrics = json.loads(http_get(handle.url + "/metrics")[1])
        assert metrics["synthesis"]["trees_built"] == 1  # zero rebuilds
        assert metrics["synthesis"]["store_hits"] == 1
        assert metrics["store"]["hits"] == 1


def test_schedule_bytes_identical_to_cli(tmp_path, capsys, fig1_payload):
    """The service is the CLI behind a socket: ``POST /v1/schedule``
    answers the exact bytes ``repro schedule`` writes to disk."""
    from repro.cli import main
    from repro.io.json_io import save_json

    app_path = str(tmp_path / "app.json")
    save_json(fig1_payload["application"], app_path)
    assert main(["schedule", app_path, "--schedules", "4"]) == 0
    capsys.readouterr()
    with open(app_path.replace(".json", ".tree.json"), "rb") as fh:
        cli_bytes = fh.read()

    with service() as handle:
        status, body, _ = http_post(handle.url + "/v1/schedule", fig1_payload)
    assert status == 200
    assert body == cli_bytes


def test_evaluate_roundtrip(fig1_payload):
    with service() as handle:
        status, tree_bytes, _ = http_post(
            handle.url + "/v1/schedule", fig1_payload
        )
        assert status == 200
        status, body, _ = http_post(
            handle.url + "/v1/evaluate",
            {
                "application": fig1_payload["application"],
                "tree": json.loads(tree_bytes),
                "scenarios": 40,
                "seed": 3,
            },
        )
        assert status == 200
        outcomes = json.loads(body)["outcomes"]
        assert sorted(outcomes) == ["0", "1"]  # fig1 has k = 1
        assert all(o["ok"] for o in outcomes.values())
        assert outcomes["0"]["mean_utility"] > 0

        status, body, _ = http_post(
            handle.url + "/v1/evaluate",
            {"application": fig1_payload["application"], "scenario": 1},
        )
        assert (status, error_code(body)) == (400, "invalid-request")


def test_evaluate_executor_field_routes_request(fig1_payload):
    """'executor' picks the routing per request; the response echoes
    the resolved spec, and results match the server default."""
    with service() as handle:
        status, tree_bytes, _ = http_post(
            handle.url + "/v1/schedule", fig1_payload
        )
        assert status == 200
        request = {
            "application": fig1_payload["application"],
            "tree": json.loads(tree_bytes),
            "scenarios": 30,
            "seed": 3,
        }
        status, default_body, _ = http_post(
            handle.url + "/v1/evaluate", request
        )
        assert status == 200
        default = json.loads(default_body)
        assert default["executor"] == "kernel"

        status, body, _ = http_post(
            handle.url + "/v1/evaluate",
            dict(request, executor="kernel@processes:2"),
        )
        assert status == 200
        sharded = json.loads(body)
        assert sharded["executor"] == "kernel@processes:2"
        assert sharded["engine"] == "kernel"
        assert sharded["outcomes"] == default["outcomes"]

        status, body, _ = http_post(
            handle.url + "/v1/evaluate", dict(request, executor="reference")
        )
        assert status == 200
        assert json.loads(body)["outcomes"] == default["outcomes"]

        # Malformed specs fail with the library's enumerating
        # one-liner, not a traceback.
        status, body, _ = http_post(
            handle.url + "/v1/evaluate",
            dict(request, executor="warp@fibers:2"),
        )
        assert (status, error_code(body)) == (400, "invalid-request")
        assert "valid engines:" in json.loads(body)["error"]["message"]

        # The retired NumPy engine fails like any unknown engine.
        status, body, _ = http_post(
            handle.url + "/v1/evaluate", dict(request, executor="batched")
        )
        assert (status, error_code(body)) == (400, "invalid-request")
        message = json.loads(body)["error"]["message"]
        assert "unknown engine 'batched'" in message
        assert "valid engines: reference, kernel" in message


# ----------------------------------------------------------------------
# /v1/evaluate parameter checks, socket-free through handlers.dispatch
# ----------------------------------------------------------------------
@pytest.fixture
def dispatch_post(fig1_payload):
    """POST a body (the fig1 app plus ``fields``) to ``path`` through
    the socket-free dispatcher; returns (status, decoded body)."""
    from repro.service import handlers
    from repro.service.state import ServiceState

    state = ServiceState(
        ServiceConfig(store=TreeStore(backend=MemoryBackend()))
    )

    def post(path, **fields):
        body = json.dumps(
            {"application": fig1_payload["application"], **fields}
        ).encode()
        response = handlers.dispatch(
            state, "POST", path, len(body), lambda n: body
        )
        return response.status, json.loads(response.body)

    yield post
    state.close()


@pytest.fixture
def dispatch_evaluate(dispatch_post):
    return functools.partial(dispatch_post, "/v1/evaluate")


def _soft_fig1(k):
    """The fig1 application with its hard process made soft (so any
    ``k`` validates) and fault budget ``k``."""
    spec = application_to_dict(paper_fig1_application())
    p1, p2 = spec["graph"]["processes"][:2]
    del p1["deadline"]
    p1.update(kind="soft", utility=p2["utility"])
    spec["k"] = k
    return spec


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"scenarios": True}, "'scenarios'"),
        ({"scenarios": "7"}, "'scenarios'"),
        ({"scenarios": 0}, "'scenarios'"),
        ({"scenarios": 20_001}, "'scenarios'"),
        ({"scenarios": 7.0}, "'scenarios'"),
        ({"seed": True}, "'seed'"),
        ({"seed": "3"}, "'seed'"),
        ({"seed": -1}, "'seed'"),
        ({"fault_counts": 1}, "'fault_counts'"),
        ({"fault_counts": [0, True]}, "'fault_counts'"),
        ({"fault_counts": ["1"]}, "'fault_counts'"),
        ({"fault_counts": [-1]}, "'fault_counts'"),
        ({"fault_counts": [1, 1]}, "duplicate fault counts"),
        ({"engine": "batched"}, "unknown field(s) ['engine']; known:"),
        ({"fault_counts": [0, 200_000]}, "'fault_counts'"),
        ({"application": _soft_fig1(1_000_000)}, "'fault_counts'"),
    ],
)
def test_evaluate_rejects_malformed_parameters(
    dispatch_evaluate, fields, named
):
    """Every malformed evaluation parameter is a 400 invalid-request
    naming the field — never a silent coercion (``true`` as one
    scenario) or a Python-internal message; the retired ``engine``
    field is rejected with the list of known fields."""
    status, body = dispatch_evaluate(max_schedules=2, **fields)
    assert (status, body["error"]["code"]) == (400, "invalid-request")
    assert named in body["error"]["message"]
    if "engine" in fields:
        assert "'executor'" in body["error"]["message"]


def test_evaluate_accepts_well_formed_parameters(dispatch_evaluate):
    status, body = dispatch_evaluate(
        max_schedules=2, scenarios=20, seed=0, fault_counts=[1]
    )
    assert status == 200
    assert body["scenarios"] == 20
    assert sorted(body["outcomes"]) == ["1"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("ftss.drop_heuristic", "no"),
        ("ftss.soft_reexecution", 1),
        ("ftss.slack_sharing", None),
        ("ftss.fast_paths", "true"),
        ("fault_children", 0),
        ("use_interval_partitioning", None),
        ("ftss.successor_weight", "x"),
        ("ftss.successor_weight", True),
        ("ftss.successor_weight", float("nan")),
        ("max_schedules", "7"),
        ("max_schedules", 2.0),
        ("max_fault_variants", -1),
        ("interval_stride", False),
    ],
)
def test_schedule_type_checks_config_fields(dispatch_post, field, value):
    """A config value of the wrong JSON type is a 400 invalid-request
    naming the field — never run with a coerced value or answered with
    a Python-internal message."""
    group, _, name = field.rpartition(".")
    config = {group: {name: value}} if group else {name: value}
    status, body = dispatch_post("/v1/schedule", config=config)
    assert (status, body["error"]["code"]) == (400, "invalid-request")
    assert f"'config.{field}'" in body["error"]["message"]


def _valid_tree(app_spec):
    """A valid FTQS tree document for the application record."""
    from repro.io.json_io import application_from_dict, tree_to_dict
    from repro.quasistatic.ftqs import FTQSConfig, ftqs
    from repro.scheduling.ftss import ftss

    app = application_from_dict(app_spec)
    return tree_to_dict(ftqs(app, ftss(app), FTQSConfig(max_schedules=4)))


def _hard_cap_plus_one(schedule):
    entry = next(e for e in schedule["entries"] if e["name"] == "P1")
    entry["reexecutions"] += 1


@pytest.mark.parametrize(
    "edit, named",
    [
        (_hard_cap_plus_one, "hard process 'P1' must be allotted exactly"),
        (
            lambda schedule: schedule["entries"].append(
                dict(schedule["entries"][0])
            ),
            "duplicate process in schedule",
        ),
        (
            lambda schedule: schedule["entries"].append(
                {"name": "NOPE", "reexecutions": 0}
            ),
            "unknown process 'NOPE'",
        ),
        (
            lambda schedule: schedule["prior_dropped"].append("NOPE"),
            "unknown process(es) ['NOPE'] in prior_dropped",
        ),
        (
            lambda schedule: schedule["prior_completed"].append("NOPE"),
            "unknown process(es) ['NOPE'] in prior_completed",
        ),
    ],
    ids=[
        "hard-cap",
        "duplicate-entry",
        "unknown-entry",
        "unknown-prior-dropped",
        "unknown-prior-completed",
    ],
)
def test_evaluate_rejects_malformed_trees(
    dispatch_evaluate, fig1_payload, edit, named
):
    """A client tree whose schedule breaks an f-schedule invariant is a
    400 invalid-request naming the problem — not a 500, a bare
    ``'NOPE'``, or (for an unknown completed name) an evaluation."""
    tree = _valid_tree(fig1_payload["application"])
    assert dispatch_evaluate(tree=tree, scenarios=5)[0] == 200
    edit(tree["nodes"][0]["schedule"])
    status, body = dispatch_evaluate(tree=tree, scenarios=5)
    assert (status, body["error"]["code"]) == (400, "invalid-request")
    assert named in body["error"]["message"]


# ----------------------------------------------------------------------
# Backpressure and deadlines
# ----------------------------------------------------------------------
def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_overload_sheds_with_429_and_retry_after(fig1_payload):
    """One worker, one queue slot: while a chaos-wedged request holds
    the worker and a second one waits, the third is shed immediately
    with 429 + Retry-After instead of piling up."""
    plan = chaos.ChaosPlan(slow_request={1: 1.5})
    with chaos.active(plan):
        with service(max_inflight=1, max_queue=1) as handle:
            url = handle.url + "/v1/schedule"
            results = []

            def post():
                results.append(http_post(url, fig1_payload))

            threads = [threading.Thread(target=post) for _ in range(2)]
            threads[0].start()
            assert wait_for(lambda: handle.state.queue.inflight == 1)
            threads[1].start()
            assert wait_for(lambda: handle.state.queue.depth == 1)

            status, body, headers = http_post(url, fig1_payload)
            assert (status, error_code(body)) == (429, "overloaded")
            assert int(headers["Retry-After"]) >= 1
            assert json.loads(body)["error"]["retry_after"] > 0

            for thread in threads:
                thread.join(timeout=15)
            assert [status for status, _, _ in results] == [200, 200]
            assert handle.state.queue.snapshot()["rejected"] == 1
    assert plan.slow_requests_injected == 1


def test_deadline_exceeded_is_504_and_counted(fig1_payload):
    """A request wedged past ``--request-timeout`` gets its 504 right
    away; the abandoned computation shows up in the metrics."""
    plan = chaos.ChaosPlan(slow_request={1: 5.0})
    with chaos.active(plan):
        with service(max_inflight=1, request_timeout=0.3) as handle:
            started = time.monotonic()
            status, body, _ = http_post(
                handle.url + "/v1/schedule", fig1_payload
            )
            assert (status, error_code(body)) == (504, "deadline-exceeded")
            assert time.monotonic() - started < 3.0  # long before 5 s
            snapshot = handle.state.queue.snapshot()
            assert snapshot["expired"] == 1
            assert snapshot["abandoned"] == 1


# ----------------------------------------------------------------------
# Degradation: visible on /readyz, never fatal
# ----------------------------------------------------------------------
class _DeadBackend(MemoryBackend):
    """A backend whose transport is gone for good."""

    name = "memory"

    def _get(self, key):
        raise ConnectionError("chaos: transport down")

    def _put(self, key, payload, tags):
        raise ConnectionError("chaos: transport down")


def test_tripped_store_breaker_degrades_readyz_not_requests(fig1_payload):
    backend = ResilientBackend(
        _DeadBackend(),
        policy=RetryPolicy(attempts=2, base_delay=0.0),
        breaker_threshold=2,
        sleep=lambda seconds: None,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with service(store=TreeStore(backend=backend)) as handle:
            status, _, headers = http_post(
                handle.url + "/v1/schedule", fig1_payload
            )
            # The request still serves (the breaker degraded the store
            # to its in-memory fallback mid-request)...
            assert status == 200
            assert backend.tripped

            # ...liveness stays green, readiness goes red with a reason.
            assert http_get(handle.url + "/healthz")[0] == 200
            status, body, _ = http_get(handle.url + "/readyz")
            assert status == 503
            document = json.loads(body)
            assert document["ready"] is False
            assert any("breaker" in reason for reason in document["reasons"])

            metrics = json.loads(http_get(handle.url + "/metrics")[1])
            assert metrics["store"]["tripped"] is True
            assert metrics["ready"] is False

            # The fallback even caches: an identical repeat is a hit.
            _, _, headers = http_post(
                handle.url + "/v1/schedule", fig1_payload
            )
            assert headers["X-Repro-Store"] == "hit"


# ----------------------------------------------------------------------
# Lifecycle: drain, exactly-once close, no leaked threads
# ----------------------------------------------------------------------
def test_draining_rejects_new_compute_but_probes_answer(fig1_payload):
    with service() as handle:
        handle.state.begin_drain()
        status, body, _ = http_post(handle.url + "/v1/schedule", fig1_payload)
        assert (status, error_code(body)) == (503, "shutting-down")
        status, body, _ = http_get(handle.url + "/healthz")
        assert status == 200 and json.loads(body)["draining"] is True
        assert http_get(handle.url + "/readyz")[0] == 503


def test_shutdown_is_graceful_and_exactly_once(fig1_payload):
    handle = ServiceHandle(
        ServiceConfig(port=0, store=TreeStore(backend=MemoryBackend()))
    ).start()
    assert http_post(handle.url + "/v1/schedule", fig1_payload)[0] == 200
    assert handle.shutdown() is True  # drained cleanly
    assert handle.shutdown() is True  # idempotent
    assert handle.state.close() is False  # resources closed exactly once


def test_no_threads_leak_after_shutdown():
    with service():
        pass
    assert wait_for(
        lambda: not [
            thread
            for thread in threading.enumerate()
            if thread.is_alive() and thread.name.startswith("repro-serve")
        ]
    ), [t.name for t in threading.enumerate()]


def test_serve_cli_sigterm_exits_zero():
    """The full process contract: boot ``repro serve`` on an ephemeral
    port, round-trip a request, SIGTERM, clean exit 0."""
    repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--cache-backend", "memory",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"serving on (http://\S+)", line)
        assert match, f"no boot line, got {line!r}"
        url = match.group(1)
        assert http_get(url + "/healthz")[0] == 200
        status, _, _ = http_post(
            url + "/v1/schedule",
            {
                "application": application_to_dict(paper_fig1_application()),
                "max_schedules": 4,
            },
        )
        assert status == 200
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=15)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, output
    assert "shutdown: drained" in output
    assert "1 request(s) completed" in output
