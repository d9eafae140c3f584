"""The long-running service's shared state and request handlers.

One :class:`ServiceState` owns everything a ``repro serve`` process
shares across requests: the
:class:`~repro.pipeline.resources.ResourceManager` (worker pools + the
optional tree store), the bounded :class:`~repro.service.queue
.WorkQueue`, the accumulated
:class:`~repro.quasistatic.synthesis.SynthesisStats`, and per-endpoint
request counters.  The HTTP layer (:mod:`repro.service.server`) is a
thin shell over it; everything here is plain-Python and testable
without a socket.

Request handling is validation-first: a body must decode to a JSON
object, carry exactly the known fields, and its application must pass
:func:`repro.model.validation.validate_application` before any
scheduling work starts — failures map to the stable 400-range codes of
:mod:`repro.service.errors`.  Synthesis goes through
:func:`repro.pipeline.runner.synthesize_tree`, so the service gets the
tree store for free: two identical ``/v1/schedule`` requests build
once and serve the second from the store (100% hits, zero rebuilds),
and the response bytes are exactly what ``repro schedule`` writes —
the service is the CLI's pipeline behind a socket, not a reimplementation.

Degradation is *visible, not fatal*: a tripped store circuit breaker
or a worker pool that fell back in-process flips :meth:`readiness` (a
503 on ``/readyz`` so orchestrators stop routing new traffic) while
``/healthz`` stays 200 and already-arrived requests keep serving.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.execution import DEFAULT_ENGINE
from repro.service.errors import (
    PayloadTooLarge,
    ServiceError,
    ValidationFailed,
    from_exception,
)
from repro.service.queue import WorkQueue

#: Type checks of the non-integer config fields, by annotation.
_JSON_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a JSON boolean"),
    "float": (
        lambda v: type(v) in (int, float) and math.isfinite(v),
        "a finite JSON number",
    ),
}

#: Canonical JSON bytes of ``repro schedule``'s output file — the
#: byte-identity contract of ``/v1/schedule`` hangs on using exactly
#: this serialization (``json.dump(..., indent=2, sort_keys=True)``).
def _document_bytes(data: Dict[str, Any]) -> bytes:
    return json.dumps(data, indent=2, sort_keys=True).encode("utf-8")


@dataclass
class ServiceConfig:
    """Knobs of one ``repro serve`` process (CLI flags, mostly)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Monte-Carlo routing: an ExecutionConfig or a spec string like
    #: "kernel@threads:8" (see repro.execution).
    execution: Any = DEFAULT_ENGINE
    max_inflight: int = 4
    max_queue: int = 16
    #: Per-request wall-clock deadline in seconds (``None`` = none).
    request_timeout: Optional[float] = 60.0
    #: Largest accepted request body in bytes.
    max_body: int = 2_000_000
    #: How long a graceful shutdown waits for in-flight work.
    drain_timeout: float = 10.0
    store: Optional[Any] = None


@dataclass
class EndpointMetrics:
    requests: int = 0
    errors: int = 0
    seconds: float = 0.0

    def note(self, status: int, elapsed: float) -> None:
        self.requests += 1
        if status >= 400:
            self.errors += 1
        self.seconds += elapsed


class _LockedStore:
    """A :class:`TreeStore` view that serializes get/put.

    The store backends were built for one-thread-at-a-time experiment
    loops (the memory LRU mutates an ``OrderedDict``, the filesystem
    backend's metrics are bare counters); the service runs
    ``--max-inflight`` handler threads.  Entries are small JSON blobs,
    so one lock around the two hot operations costs microseconds and
    keeps every backend's invariants — synthesis itself stays fully
    parallel outside it.
    """

    def __init__(self, store, lock: threading.Lock) -> None:
        self._store = store
        self._lock = lock

    def get(self, *args, **kwargs):
        with self._lock:
            return self._store.get(*args, **kwargs)

    def put(self, *args, **kwargs):
        with self._lock:
            return self._store.put(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._store, attr)


class ServiceState:
    """Everything one service process shares across requests."""

    #: Upper bound on a request's scenarios per fault count: the
    #: paper's evaluation scale (§6).
    MAX_SCENARIOS = 20_000
    #: Upper bound on an evaluated fault count, explicit or the default
    #: ``0..k``: the sampler draws ``scenarios x processes x (max + 1)``
    #: execution times, and no experiment sweeps a budget above 4.
    MAX_FAULT_COUNT = 16

    def __init__(self, config: ServiceConfig) -> None:
        from repro.pipeline.resources import ResourceManager
        from repro.quasistatic.synthesis import SynthesisStats

        from repro.execution import ExecutionConfig

        self.config = config
        self.execution = ExecutionConfig.coerce(config.execution)
        self.store = config.store
        self.resources = ResourceManager(store=config.store)
        self.queue = WorkQueue(
            workers=config.max_inflight, max_queue=config.max_queue
        )
        self.stats = SynthesisStats()
        self.started_at = time.monotonic()
        self.draining = False
        self._closed = False
        self._close_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._store_lock = threading.Lock()
        # The shared TaskPools expect one map() at a time; evaluations
        # that actually shard (workers > 1) take this lock, so the
        # parallel executors and the threaded service compose safely.
        self._pool_lock = threading.Lock()
        self._locked_store = (
            _LockedStore(self.store, self._store_lock)
            if self.store is not None
            else None
        )
        self.endpoints: Dict[str, EndpointMetrics] = {}
        self._endpoint_lock = threading.Lock()
        # Connection threads currently inside a request, tracked so a
        # graceful shutdown can wait for the final response bytes to
        # reach the socket after the work queue has drained.
        self._http_inflight = 0
        self._http_idle = threading.Condition()

    # ------------------------------------------------------------------
    # Request bodies
    # ------------------------------------------------------------------
    def decode_body(self, raw: bytes) -> Dict[str, Any]:
        if len(raw) > self.config.max_body:
            raise PayloadTooLarge(
                f"request body of {len(raw)} bytes exceeds the "
                f"{self.config.max_body} byte limit"
            )
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationFailed(f"body is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValidationFailed(
                f"body must be a JSON object, got {type(data).__name__}"
            )
        return data

    def _decode_application(self, payload: Dict[str, Any]):
        from repro.io.json_io import application_from_dict
        from repro.model.validation import validate_application

        if "application" not in payload:
            raise ValidationFailed(
                "missing required field 'application'"
            )
        spec = payload["application"]
        if not isinstance(spec, dict):
            raise ValidationFailed(
                "'application' must be a JSON object (the "
                "application_to_dict form)"
            )
        try:
            app = application_from_dict(spec)
        except ServiceError:
            raise
        except Exception as exc:
            raise from_exception(exc)
        validate_application(app)  # ModelError → 400 invalid-application
        return app

    @classmethod
    def _config_from(cls, payload: Dict[str, Any]):
        """A validated :class:`FTQSConfig` from the request payload.

        ``max_schedules`` may ride at the top level (mirroring the
        CLI's ``--schedules``) or inside ``config``; unknown fields are
        rejected by name so typos fail loudly instead of silently
        running defaults, and so are values of the wrong JSON type.
        """
        from repro.quasistatic.ftqs import FTQSConfig
        from repro.scheduling.ftss import FTSSConfig

        data = payload.get("config", {})
        if not isinstance(data, dict):
            raise ValidationFailed("'config' must be a JSON object")
        data = dict(data)
        ftss_data = data.pop("ftss", None)
        known = {
            f.name for f in dataclasses.fields(FTQSConfig)
        } - {"ftss"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationFailed(
                f"unknown config field(s) {unknown}; known: "
                f"{sorted(known) + ['ftss']}"
            )
        if "max_schedules" in payload:
            data.setdefault("max_schedules", payload["max_schedules"])
        cls._check_types(FTQSConfig, data, "config.")
        kwargs: Dict[str, Any] = data
        if ftss_data is not None:
            if not isinstance(ftss_data, dict):
                raise ValidationFailed(
                    "'config.ftss' must be a JSON object"
                )
            fknown = {f.name for f in dataclasses.fields(FTSSConfig)}
            funknown = sorted(set(ftss_data) - fknown)
            if funknown:
                raise ValidationFailed(
                    f"unknown ftss config field(s) {funknown}; known: "
                    f"{sorted(fknown)}"
                )
            cls._check_types(FTSSConfig, ftss_data, "config.ftss.")
            kwargs["ftss"] = FTSSConfig(**ftss_data)
        try:
            return FTQSConfig(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ValidationFailed(f"bad config: {exc}")

    def _execution_from(self, payload: Dict[str, Any]):
        """The request's Monte-Carlo routing.

        ``executor`` (a spec string like ``"kernel@threads:8"``)
        replaces the server's configured routing for this request.  A
        malformed spec fails with the library's one-line enumeration
        of valid engines and modes.
        """
        from repro.errors import RuntimeModelError
        from repro.execution import ExecutionConfig

        if "executor" not in payload:
            return self.execution
        spec = payload["executor"]
        if not isinstance(spec, str):
            raise ValidationFailed(
                "'executor' must be a spec string like "
                "'kernel@threads:8'"
            )
        try:
            return ExecutionConfig.parse(spec)
        except RuntimeModelError as exc:
            raise ValidationFailed(str(exc))

    @classmethod
    def _check_types(cls, config_cls, data: Dict[str, Any], where: str):
        """A 400 naming the field for a ``data`` value of the wrong JSON
        type for its ``config_cls`` field (ranges are the class's)."""
        for spec in dataclasses.fields(config_cls):
            if spec.name not in data:
                continue
            value, name = data[spec.name], where + spec.name
            kind = getattr(spec.type, "__name__", spec.type)
            if kind == "int":
                cls._integer(value, name, 0, None)
            elif kind in _JSON_TYPES and not _JSON_TYPES[kind][0](value):
                raise ValidationFailed(
                    f"'{name}' must be {_JSON_TYPES[kind][1]}, got "
                    f"{json.dumps(value)}"
                )

    @staticmethod
    def _integer(value: Any, name: str, low: int, high: Optional[int]):
        """``value`` if it is a JSON integer (not a boolean) within
        ``[low, high]``; else a 400 naming the field."""
        if (
            not isinstance(value, int)
            or isinstance(value, bool)
            or value < low
            or (high is not None and value > high)
        ):
            bounds = f">= {low}" if high is None else f"in {low}..{high:,}"
            raise ValidationFailed(
                f"'{name}' must be a JSON integer {bounds}, got "
                f"{json.dumps(value)}"
            )
        return value

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------
    @staticmethod
    def _chaos_delay() -> None:
        """The ``slow-request@N`` injection point: runs inside the
        request's worker, so a wedged request burns real capacity."""
        from repro.pipeline import chaos

        plan = chaos.current()
        if plan is not None:
            delay = plan.service_request()
            if delay > 0.0:
                time.sleep(delay)

    # ------------------------------------------------------------------
    # Compute endpoints (run on queue workers)
    # ------------------------------------------------------------------
    def schedule(self, payload: Dict[str, Any]) -> Tuple[bytes, Dict[str, str]]:
        """``POST /v1/schedule`` — application in, synthesized tree out.

        The response body is byte-identical to the ``.tree.json`` file
        the equivalent ``repro schedule`` run writes; request-level
        metadata (store hit/miss, node count) travels in headers so it
        can never perturb the byte contract.
        """
        from repro.io.json_io import tree_to_dict

        self._chaos_delay()
        app = self._decode_application(payload)
        config = self._config_from(payload)
        tree, served_from = self._build_tree(app, config)
        headers = {
            "X-Repro-Store": served_from,
            "X-Repro-Tree-Nodes": str(len(tree)),
            "X-Repro-Tree-Schedules": str(tree.different_schedules()),
        }
        return _document_bytes(tree_to_dict(tree)), headers

    def _build_tree(self, app, config):
        """Root synthesis + store-aware FTQS; returns (tree, source).

        Runs with a request-local stats collector merged into the
        shared one afterwards, so concurrent builds never race on the
        counters and the hit/miss classification of *this* request is
        exact.
        """
        from repro.errors import UnschedulableError
        from repro.pipeline.runner import synthesize_tree
        from repro.quasistatic.synthesis import SynthesisStats
        from repro.scheduling.ftss import ftss

        root = ftss(app, config=config.ftss)
        if root is None:
            raise from_exception(
                UnschedulableError(
                    "no f-schedule meets all hard deadlines under the "
                    "fault hypothesis"
                )
            )
        local = SynthesisStats()
        tree = synthesize_tree(
            app, root, config, stats=local, store=self._locked_store
        )
        with self._stats_lock:
            self.stats.merge(local)
        served_from = (
            "hit" if local.store_hits else
            ("miss" if self.store is not None else "off")
        )
        return tree, served_from

    def evaluate(self, payload: Dict[str, Any]) -> Tuple[bytes, Dict[str, str]]:
        """``POST /v1/evaluate`` — tree (or app to synthesize) plus
        evaluation parameters in, per-fault-count utilities out."""
        from repro.io.json_io import tree_from_dict

        self._chaos_delay()
        app = self._decode_application(payload)
        known = {
            "application", "tree", "config", "max_schedules",
            "scenarios", "seed", "fault_counts", "executor",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationFailed(
                f"unknown field(s) {unknown}; known: {sorted(known)}"
            )
        scenarios = self._integer(
            payload.get("scenarios", 200), "scenarios", 1,
            self.MAX_SCENARIOS,
        )
        seed = self._integer(payload.get("seed", 1), "seed", 0, None)
        fault_counts = payload.get("fault_counts")
        if fault_counts is not None:
            if not isinstance(fault_counts, list):
                raise ValidationFailed(
                    f"'fault_counts' must be a JSON list of integers, "
                    f"got {json.dumps(fault_counts)}"
                )
            for count in fault_counts:
                self._integer(
                    count, "fault_counts", 0, self.MAX_FAULT_COUNT
                )
        elif app.k > self.MAX_FAULT_COUNT:
            raise ValidationFailed(
                f"'fault_counts' defaults to 0..k, and k={app.k} exceeds "
                f"the largest evaluated fault count "
                f"{self.MAX_FAULT_COUNT}; pass an explicit 'fault_counts'"
            )
        execution = self._execution_from(payload)
        if "tree" in payload:
            if not isinstance(payload["tree"], dict):
                raise ValidationFailed("'tree' must be a JSON object")
            tree = tree_from_dict(app, payload["tree"])
        else:
            tree, _ = self._build_tree(app, self._config_from(payload))
        pool_guard = (
            self._pool_lock
            if execution.workers > 1
            else contextlib.nullcontext()
        )
        with pool_guard:
            evaluator = self.resources.evaluator(
                app,
                n_scenarios=scenarios,
                fault_counts=fault_counts,
                seed=seed,
                execution=execution,
            )
            with evaluator:
                outcomes = evaluator.evaluate(tree)
        body = {
            "engine": execution.engine,
            "executor": execution.spec(),
            "scenarios": scenarios,
            "outcomes": {
                str(faults): {
                    "mean_utility": outcome.mean_utility,
                    "mean_switches": outcome.mean_switches,
                    "mean_faults": outcome.mean_faults,
                    "deadline_misses": outcome.deadline_misses,
                    "n_scenarios": outcome.n_scenarios,
                    "ok": outcome.ok,
                }
                for faults, outcome in sorted(outcomes.items())
            },
        }
        return _document_bytes(body), {}

    # ------------------------------------------------------------------
    # Probes (answered inline, never queued)
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Liveness: the process answers — even while draining or
        degraded.  Orchestrators restart on *this* going dark, so it
        must stay 200 through every survivable failure."""
        return {"status": "alive", "draining": self.draining}

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """Readiness: should new traffic be routed here?

        ``False`` (a 503) while draining, after the store's circuit
        breaker tripped to its in-memory fallback, or after a worker
        pool degraded to in-process execution — the server still
        *works*, but a fleet scheduler should prefer healthy peers.
        """
        from repro.runtime.engine.parallel import pool_recovery

        reasons = []
        if self.draining:
            reasons.append("draining: shutdown in progress")
        if self._store_tripped():
            reasons.append(
                "store: circuit breaker open, serving from the "
                "in-memory fallback"
            )
        if pool_recovery().pool_degradations:
            reasons.append(
                "pool: worker pool degraded to in-process execution"
            )
        return not reasons, {
            "ready": not reasons,
            "reasons": reasons,
        }

    def _store_tripped(self) -> bool:
        backend = getattr(self.store, "backend", None)
        # ResilientBackend proxies attribute reads to its inner
        # backend, so a plain getattr default would never miss; only
        # its own __dict__ knows whether the breaker tripped.
        return bool(backend is not None and backend.__dict__.get("tripped"))

    def note_request(self, endpoint: str, status: int, elapsed: float) -> None:
        with self._endpoint_lock:
            metrics = self.endpoints.setdefault(endpoint, EndpointMetrics())
            metrics.note(status, elapsed)

    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` JSON snapshot."""
        from repro.runtime.engine.kernel import kernel_stats
        from repro.runtime.engine.parallel import pool_recovery
        from repro.runtime.engine.threads import thread_stats

        with self._endpoint_lock:
            requests = {
                endpoint: dataclasses.asdict(m)
                for endpoint, m in sorted(self.endpoints.items())
            }
        store: Optional[Dict[str, Any]] = None
        if self.store is not None:
            store = dataclasses.asdict(self.store.metrics)
            store["backend"] = self.store.backend_name
            store["tripped"] = self._store_tripped()
        with self._stats_lock:
            synthesis = {
                "trees_built": self.stats.trees_built,
                "nodes_expanded": self.stats.nodes_expanded,
                "candidates_evaluated": self.stats.candidates_evaluated,
                "memo_hits": self.stats.memo_hits,
                "store_hits": self.stats.store_hits,
                "store_misses": self.stats.store_misses,
                "wall_seconds": self.stats.wall_seconds,
            }
        ready, _ = self.readiness()
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "ready": ready,
            "draining": self.draining,
            "queue": self.queue.snapshot(),
            "requests": requests,
            "synthesis": synthesis,
            "store": store,
            "pool": dataclasses.asdict(pool_recovery()),
            "kernel": kernel_stats().as_dict(),
            "execution": {
                "executor": self.execution.spec(),
                "threads": thread_stats().as_dict(),
            },
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def http_started(self) -> None:
        with self._http_idle:
            self._http_inflight += 1

    def http_finished(self) -> None:
        with self._http_idle:
            self._http_inflight -= 1
            self._http_idle.notify_all()

    def wait_http_idle(self, timeout: float) -> bool:
        """Wait for every connection thread to finish writing its
        response; ``False`` if some were still busy at the timeout."""
        with self._http_idle:
            return self._http_idle.wait_for(
                lambda: self._http_inflight == 0, timeout=timeout
            )

    def begin_drain(self) -> None:
        self.draining = True

    def close(self) -> bool:
        """Drain the queue and release the shared resources.

        Exactly-once: concurrent or repeated calls (a SIGTERM racing a
        ``with`` exit, say) see ``False`` and touch nothing — the
        pools and the store backend are closed a single time.  The
        closing call returns whether the queue drained cleanly within
        ``drain_timeout``.
        """
        with self._close_lock:
            if self._closed:
                return False
            self._closed = True
        self.draining = True
        clean = self.queue.drain(timeout=self.config.drain_timeout)
        self.resources.close()
        return clean
