"""Spans around each layer's public functions, for the traced run only.

The benchmark records spans from its own code: every function in
:data:`TARGETS` is replaced, at the place its caller looks it up (the
module global it was imported into, or the class attribute), by a
wrapper that records a span and then calls the original.  Nothing
under ``src/`` is edited, and :meth:`Tracer.restore` puts every
original back, so untraced runs execute the unmodified program.

Spans carry their parent, so a layer's self time (its duration minus
what its child spans cover) can be computed; for example
``service.handler`` contains ``scheduling.ftss``.  Spans are kept in
memory and written out once, when the run ends.

Which end-to-end metric each layer should move, written down before
measuring (``workloads.py`` has the workloads):

=====================  ==================================================
layer                  end-to-end metric it should move
=====================  ==================================================
workloads.generate     none: under 1% of op time everywhere
scheduling (ftss)      latency_p50_ms on service-mix (store hits recompute
                       the FTSS root)
quasistatic (ftqs)     ops_per_s on fig9-cold; ops_per_s on service-mix
                       (store misses); setup_s on cc-evaluate
store                  latency_p50_ms on service-mix
montecarlo (sampling)  ops_per_s, latency_p50_ms, peak_rss_mb on
                       cc-evaluate; ops_per_s on service-mix (evaluates)
engine.packing         ops_per_s on cc-evaluate
engine.compile         under 1% today; ops_per_s on fig9-cold if the
                       decision tables move out of codegen
kernel (build)         ops_per_s, latency_p50_ms on fig9-cold; setup_s on
                       cc-evaluate and service-mix
engine.run             ops_per_s on cc-evaluate
io.json                latency_p50_ms on service-mix
service                latency_p50_ms, ops_per_s on service-mix
=====================  ==================================================
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Marks a wrapper so a leftover one can be found after restore.
WRAPPED = "__perfbench_wrapped__"


def _count_sampled(recorder, args, kwargs, result):
    evaluator = args[0]
    recorder.add(
        "montecarlo.scenarios_sampled",
        evaluator.n_scenarios * len(evaluator.fault_counts),
    )


def _count_packed(recorder, args, kwargs, result):
    recorder.add("engine.scenarios_packed", result.n_scenarios)


def _count_run(recorder, args, kwargs, result):
    recorder.add("engine.run_scenarios", result.n_scenarios)
    recorder.add("engine.fast_scenarios", result.n_fast)


def _count_shed(recorder, args, kwargs, result):
    if result.status == 429:
        recorder.add("service.shed", 1)


#: (owner, attribute, span name, counter).  ``owner`` is a module, or
#: ``module:Class`` for a method.  A function imported into several
#: modules is wrapped at each import site the workloads reach.
#: ``repro.scheduling.ftss.ftss`` and the ``repro.io.json_io``
#: functions are wrapped in their home module because the service
#: imports them inside its handlers; the FTQS engine's own binding of
#: ``ftss`` is left alone, so ``scheduling.ftss`` counts root
#: schedules (and the one FTSF makes), not FTQS's tail scheduling.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.pipeline.runner", "generate_application",
     "workloads.generate", None),
    ("repro.pipeline.runner", "ftss", "scheduling.ftss", None),
    ("repro.scheduling.ftss", "ftss", "scheduling.ftss", None),
    ("repro.evaluation.experiments.fig9", "ftsf", "scheduling.ftsf", None),
    ("repro.pipeline.runner", "ftqs", "quasistatic.ftqs", None),
    ("repro.pipeline.store.core:TreeStore", "get", "store.get", None),
    ("repro.pipeline.store.core:TreeStore", "put", "store.put", None),
    ("repro.evaluation.montecarlo:MonteCarloEvaluator", "__init__",
     "montecarlo.sampling", _count_sampled),
    ("repro.runtime.engine.batch:ScenarioBatch", "from_scenarios",
     "engine.packing", _count_packed),
    ("repro.runtime.engine.simulator:BatchSimulator", "__init__",
     "engine.compile", None),
    ("repro.runtime.engine.kernel.dispatch", "generate_kernel_source",
     "kernel.codegen", None),
    ("repro.runtime.engine.kernel.dispatch", "compile_kernel",
     "kernel.cc", None),
    ("repro.runtime.engine.kernel.dispatch", "load_kernel",
     "kernel.load", None),
    ("repro.runtime.engine.kernel.dispatch:KernelSimulator", "run_batch",
     "engine.run", _count_run),
    ("repro.io.json_io", "application_from_dict", "io.json", None),
    ("repro.io.json_io", "tree_from_dict", "io.json", None),
    ("repro.io.json_io", "tree_to_dict", "io.json", None),
    ("repro.pipeline.store.core", "tree_from_dict", "io.json", None),
    ("repro.pipeline.store.core", "tree_to_dict", "io.json", None),
    ("repro.service.handlers", "dispatch", "service.dispatch", _count_shed),
    ("repro.service.state:ServiceState", "schedule",
     "service.handler", None),
    ("repro.service.state:ServiceState", "evaluate",
     "service.handler", None),
)

#: Not timed: the service runs handlers on its queue's worker threads,
#: so the submitted callable is wrapped to carry the caller's span as
#: its parent across the thread hop.
PROPAGATE = ("repro.service.queue:WorkQueue", "execute")


def resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Recorder:
    """Thread-safe in-memory span and counter sink."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent, thread)
        self.spans: List[Tuple[int, str, float, float, Optional[int], str]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Optional[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def push(self, span_id: Optional[int]) -> None:
        self._stack().append(span_id)

    def pop(self) -> None:
        self._stack().pop()

    def call(self, name: str, fn, args, kwargs):
        parent = self.current()
        span_id = next(self._ids)
        self.push(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.pop()
            self.spans.append(
                (span_id, name, start, end, parent,
                 threading.current_thread().name)
            )

    def add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"id": i, "name": n, "start": s, "end": e,
                     "parent": p, "thread": t}
                    for i, n, s, e, p, t in self.spans
                ],
                handle,
            )


def _timed(recorder: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = recorder.call(name, fn, args, kwargs)
        if counter is not None:
            counter(recorder, args, kwargs, result)
        return result

    setattr(wrapper, WRAPPED, True)
    return wrapper


def _propagating(recorder: Recorder, execute):
    @functools.wraps(execute)
    def wrapper(self, fn, *args, **kwargs):
        parent = recorder.current()

        def carried():
            recorder.push(parent)
            try:
                return fn()
            finally:
                recorder.pop()

        return execute(self, carried, *args, **kwargs)

    setattr(wrapper, WRAPPED, True)
    return wrapper


def _replace(owner, attr: str, make):
    """Wrap ``owner.attr`` (keeping classmethod-ness); returns the raw
    original so it can be put back verbatim."""
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return raw


class Tracer:
    """Installs the span wrappers for one traced block and restores
    them afterwards."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        try:
            for owner_name, attr, name, counter in TARGETS:
                owner = resolve_owner(owner_name)
                raw = _replace(
                    owner,
                    attr,
                    lambda fn, name=name, counter=counter: _timed(
                        self.recorder, name, fn, counter
                    ),
                )
                self._saved.append((owner, attr, raw))
            owner = resolve_owner(PROPAGATE[0])
            raw = _replace(
                owner,
                PROPAGATE[1],
                lambda fn: _propagating(self.recorder, fn),
            )
            self._saved.append((owner, PROPAGATE[1], raw))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def leftover_wrappers() -> List[str]:
    """Every wrapper still reachable from a loaded ``repro`` module's
    globals or class attributes (empty when the API is unchanged)."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED, False):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type) and value.__module__ == module_name:
                for name, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    if getattr(member, WRAPPED, False):
                        found.append(f"{module_name}.{attr}.{name}")
    return found


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
def _durations(recorder: Recorder):
    """Per span name: total seconds (outermost spans only, so a name
    nested in itself is not counted twice), self seconds and calls."""
    spans = {s[0]: s for s in recorder.spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, _ in recorder.spans:
        if parent is not None and parent in spans:
            child_time[parent] += end - start
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for span_id, name, start, end, parent, _ in recorder.spans:
        entry = totals[name]
        entry[2] += 1
        entry[1] += (end - start) - child_time[span_id]
        ancestor = parent
        nested = False
        while ancestor is not None and ancestor in spans:
            if spans[ancestor][1] == name:
                nested = True
                break
            ancestor = spans[ancestor][4]
        if not nested:
            entry[0] += end - start
    return totals


def _queue_wait(recorder: Recorder) -> float:
    """Dispatch time not covered by the handler it queued."""
    handler_time: Dict[int, float] = defaultdict(float)
    for _, name, start, end, parent, _ in recorder.spans:
        if name == "service.handler" and parent is not None:
            handler_time[parent] += end - start
    return sum(
        (end - start) - handler_time[span_id]
        for span_id, name, start, end, _, _ in recorder.spans
        if name == "service.dispatch"
    )


def layer_metrics(recorder: Recorder, counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``counters`` holds the program's own counters, differenced over
    the traced blocks (synthesis stats, store metrics, kernel stats).
    """
    totals = _durations(recorder)
    counts = recorder.counts

    def seconds(name):
        return totals[name][0] if name in totals else 0.0

    def calls(name):
        return totals[name][2] if name in totals else 0

    gets = counters["store.hits"] + counters["store.misses"]
    run_scenarios = counts["engine.run_scenarios"]
    return {
        "workloads.generate_s": seconds("workloads.generate"),
        "workloads.generate_calls": calls("workloads.generate"),
        "scheduling.ftss_s": seconds("scheduling.ftss"),
        "scheduling.ftss_calls": calls("scheduling.ftss"),
        "scheduling.ftsf_s": seconds("scheduling.ftsf"),
        "quasistatic.ftqs_s": seconds("quasistatic.ftqs"),
        "quasistatic.trees_built": counters["quasistatic.trees_built"],
        "quasistatic.nodes_expanded": counters["quasistatic.nodes_expanded"],
        "quasistatic.memo_hits": counters["quasistatic.memo_hits"],
        "store.get_s": seconds("store.get"),
        "store.put_s": seconds("store.put"),
        "store.hits": counters["store.hits"],
        "store.misses": counters["store.misses"],
        "store.errors": counters["store.errors"],
        "store.hit_ratio": counters["store.hits"] / gets if gets else 0.0,
        "montecarlo.sampling_s": seconds("montecarlo.sampling"),
        "montecarlo.scenarios_sampled": counts["montecarlo.scenarios_sampled"],
        "engine.packing_s": seconds("engine.packing"),
        "engine.scenarios_packed": counts["engine.scenarios_packed"],
        "engine.compile_s": seconds("engine.compile"),
        "engine.compile_calls": calls("engine.compile"),
        "kernel.codegen_s": seconds("kernel.codegen"),
        "kernel.cc_s": seconds("kernel.cc"),
        "kernel.cc_builds": counters["kernel.cc_builds"],
        "kernel.load_s": seconds("kernel.load"),
        "kernel.cache_hits": counters["kernel.cache_hits"],
        "kernel.fallbacks": counters["kernel.fallbacks"],
        "engine.run_s": seconds("engine.run"),
        "engine.run_scenarios": run_scenarios,
        "engine.oracle_scenarios": counters["engine.oracle_scenarios"],
        "engine.fast_path_share": (
            counts["engine.fast_scenarios"] / run_scenarios
            if run_scenarios else 0.0
        ),
        "io.json_s": seconds("io.json"),
        "service.dispatch_s": seconds("service.dispatch"),
        "service.handler_s": seconds("service.handler"),
        "service.queue_wait_s": _queue_wait(recorder),
        "service.shed": counts["service.shed"],
    }


def span_table(recorder: Recorder, op_seconds: float) -> List[str]:
    """Human-readable per-span totals, self times and op-time shares."""
    lines = [
        f"  {'span':<22}{'calls':>8}{'total s':>11}{'self s':>11}"
        f"{'share':>8}"
    ]
    for name, (total, self_s, n) in sorted(_durations(recorder).items()):
        share = total / op_seconds if op_seconds else 0.0
        lines.append(
            f"  {name:<22}{n:>8}{total:>11.3f}{self_s:>11.3f}{share:>8.1%}"
        )
    return lines
