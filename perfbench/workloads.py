"""The benchmark's three workloads, driven through the public API.

Each workload is a closed loop: a client sends its next op only after
the previous one returned.  ``setup`` builds the inputs (applications
from fixed catalogues, everything else from the seed), fresh caches
and one untimed warm-up op; ``run_block`` times ops until
a time budget is spent; ``check`` verifies the ops' outputs against the
repository's oracles after the timed phase.  What the check needs is
kept while the ops run (only cheap comparisons happen on arrival);
the work of checking happens afterwards.

* ``fig9-cold`` — the first run of the Fig. 9 experiment: every op is
  a new application, so every FTQS tree and every kernel is built.
* ``cc-evaluate`` — the cruise-controller Monte-Carlo path with every
  plan and kernel warm: sampling, packing and the kernel run.
* ``service-mix`` — two clients of one service state: store-hit and
  store-miss ``/v1/schedule`` calls and ``/v1/evaluate`` calls.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from collections import deque, namedtuple
from typing import Dict, List, Optional

import numpy as np

from repro.evaluation.experiments.fig9 import Fig9Config, Fig9Runner
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.io.json_io import (
    application_from_dict,
    application_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.pipeline.runner import synthesize_tree
from repro.pipeline.store import MemoryBackend, TreeStore
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.quasistatic.synthesis import SynthesisStats
from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.kernel import KernelSimulator, kernel_stats
from repro.runtime.online import OnlineScheduler
from repro.scheduling.ftsf import ftsf
from repro.scheduling.ftss import ftss
from repro.service import handlers
from repro.service.state import ServiceConfig, ServiceState
from repro.workloads.cruise import cruise_controller
from repro.workloads.suite import WorkloadSpec, generate_application

from measure import MIN_BEYOND, median, peak_rss_mb, percentile, samples_beyond

#: Seed of the fixed application catalogues (the Fig. 9 experiment's
#: default seed).  Applications are the costly, heavy-tailed input, so
#: every run uses the same ones; the workload seed drives the rest.
CATALOGUE_SEED = 2008

#: One timed op: its class, start (``time.perf_counter``) and latency
#: in seconds, and whether it succeeded as far as the op itself can
#: tell (checks come later).
Op = namedtuple("Op", "kind start latency ok")


def derive(seed: int, *keys) -> int:
    """A per-purpose seed derived from a base seed and string or int
    keys."""
    words = [seed] + [
        k if isinstance(k, int) else int.from_bytes(k.encode(), "little")
        for k in keys
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def program_counters(stats, store) -> Dict[str, float]:
    """The program's own counters that the traced run differences."""
    kernel = kernel_stats()
    metrics = store.metrics
    return {
        "quasistatic.trees_built": stats.trees_built,
        "quasistatic.nodes_expanded": stats.nodes_expanded,
        "quasistatic.memo_hits": stats.memo_hits,
        "store.hits": metrics.hits,
        "store.misses": metrics.misses,
        "store.errors": metrics.errors,
        "kernel.cc_builds": kernel.compiles,
        "kernel.cache_hits": kernel.cache_hits,
        "kernel.fallbacks": kernel.n_fallbacks,
        "engine.oracle_scenarios": kernel.oracle_scenarios,
    }


def timed_op(kind: str, fn):
    """Run and time one op; returns ``(Op, fn's result or None)``.

    An exception is a failed op, with its traceback on stderr, not the
    end of the run: it counts in the error rate like a bad output.
    """
    start = time.perf_counter()
    try:
        result = fn()
    except Exception:
        traceback.print_exc()
        return Op(kind, start, time.perf_counter() - start, False), None
    return Op(kind, start, time.perf_counter() - start, True), result


def check_plans(app, plans, samples) -> List[str]:
    """Re-simulate sampled scenarios on the reference engine.

    ``samples`` holds ``(scenario, {plan name: utility the op
    reported})``.  The reference utility must equal the op's
    bit-for-bit, and a kernel re-run of the same scenarios must agree
    with the reference on utility and deadline miss.
    """
    errors = []
    scenarios = [scenario for scenario, _ in samples]
    for name, plan in plans.items():
        scheduler = OnlineScheduler(app, plan, record_events=False)
        kernel = KernelSimulator(app, plan).run_batch(
            ScenarioBatch.from_scenarios(app, scenarios)
        )
        for i, (scenario, reported) in enumerate(samples):
            ref = scheduler.run(scenario)
            missed = not ref.met_all_hard_deadlines
            if ref.utility != reported[name]:
                errors.append(
                    f"{name}: op reported utility {reported[name]!r}, "
                    f"reference {ref.utility!r}"
                )
            if (
                float(kernel.utilities[i]) != ref.utility
                or bool(kernel.deadline_miss[i]) != missed
            ):
                errors.append(
                    f"{name}: kernel re-run ({kernel.utilities[i]!r}, "
                    f"miss={bool(kernel.deadline_miss[i])}) differs from "
                    f"reference ({ref.utility!r}, miss={missed})"
                )
    return errors


def sample_outcomes(rng, scenarios, results, per_count):
    """Pick ``per_count`` scenarios per fault count with what each plan
    reported for them."""
    picked = []
    for faults, scenario_list in scenarios.items():
        for j in rng.choice(len(scenario_list), per_count, replace=False):
            picked.append(
                (
                    scenario_list[j],
                    {
                        name: per_fault[faults].utilities[j]
                        for name, per_fault in results.items()
                    },
                )
            )
    return picked


class Workload:
    name = ""
    #: Timed ops after which peak RSS is read.  The program's caches
    #: and the check's samples grow with every op, so a reading at the
    #: end of the timed phase would grow with throughput; this many ops
    #: fit in every run with room to spare.
    RSS_OPS = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.completed = 0
        #: ``ru_maxrss`` in MB once ``RSS_OPS`` ops completed.
        self.rss_mb: Optional[float] = None

    def _completed_op(self) -> None:
        self.completed += 1
        if self.completed == self.RSS_OPS:
            self.rss_mb = peak_rss_mb()

    def setup(self) -> None:
        raise NotImplementedError

    def run_block(self, seconds: float) -> List[Op]:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        raise NotImplementedError

    def class_metrics(self, ops: List[Op]):
        """Extra printed lines: ``(name, value, unit, note)``."""
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fig9-cold
# ----------------------------------------------------------------------
class _KeptEvaluator:
    """Hands the evaluator through and keeps the plans and results of
    its ``compare`` for the output check."""

    def __init__(self, evaluator) -> None:
        self.evaluator = evaluator
        self.plans = None
        self.results = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.evaluator.close()

    def compare(self, plans):
        self.plans = dict(plans)
        self.results = self.evaluator.compare(plans)
        return self.results


class _Fig9App(Fig9Runner):
    """One application through the Fig. 9 pipeline, with the scenario
    seed taken from the benchmark seed and the evaluation kept for the
    check."""

    def __init__(self, config, scenario_seed: int, **kwargs) -> None:
        super().__init__(config, **kwargs)
        self.scenario_seed = scenario_seed
        self.kept: List[_KeptEvaluator] = []

    def evaluator(self, app, **kwargs):
        kwargs["seed"] = self.scenario_seed
        kept = _KeptEvaluator(super().evaluator(app, **kwargs))
        self.kept.append(kept)
        return kept


class Fig9Cold(Workload):
    """Op: one new application through ``Fig9Runner`` — generate, FTSS
    and FTSF, FTQS with M=8, then a paired evaluation of the three
    plans at 100 scenarios per fault count 0..3 on the kernel engine.

    Each cycle runs one application of each size 10..50, in an order
    drawn from the seed, and blocks run whole cycles, so every block has
    the same size mix.  Application ``(cycle, size)`` comes from a fixed
    catalogue, the same in every run; the seed drives the size order
    and the Monte-Carlo scenarios.  (Drawn from the seed instead, the
    15-20 applications a run reaches are too few to average out the
    per-application cost: on a 2-vCPU host, five seeds spread 23% on
    latency_p50_ms.)"""

    name = "fig9-cold"
    RSS_OPS = 10
    SIZES = (10, 20, 30, 40, 50)
    CHECKS_PER_FAULT_COUNT = 4

    def setup(self) -> None:
        self.store = TreeStore(backend=MemoryBackend())
        self.stats = SynthesisStats()
        self.kept = []
        self.cycle = 0
        self.order = np.random.default_rng(derive(self.seed, "order"))
        warm_up = self._op(
            self.SIZES[0], derive(CATALOGUE_SEED, "fig9", "warm-up")
        )
        if not warm_up.ok:
            raise RuntimeError("fig9-cold warm-up op failed")

    def _op(self, size: int, app_seed: int) -> Op:
        config = Fig9Config(
            sizes=(size,),
            apps_per_size=1,
            n_scenarios=100,
            max_schedules=8,
            k=3,
            mu=15,
            seed=app_seed,
            execution="kernel",
        )
        scenario_seed = derive(self.seed, "scenarios", app_seed)
        runner = _Fig9App(
            config, scenario_seed, store=self.store, stats=self.stats
        )
        op, rows = timed_op(f"size-{size}", runner.run)
        if not rows or len(runner.kept) != 1:
            return op._replace(ok=False)
        kept = runner.kept[0]
        rng = np.random.default_rng(derive(scenario_seed, "check"))
        self.kept.append(
            (
                kept.evaluator.app,
                kept.plans,
                sample_outcomes(
                    rng,
                    kept.evaluator.scenarios,
                    kept.results,
                    self.CHECKS_PER_FAULT_COUNT,
                ),
            )
        )
        return op

    def run_block(self, seconds: float) -> List[Op]:
        ops = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for size in self.order.permutation(self.SIZES):
                app_seed = derive(CATALOGUE_SEED, "fig9", self.cycle, int(size))
                ops.append(self._op(int(size), app_seed))
                self._completed_op()
            self.cycle += 1
        return ops

    def check(self) -> List[str]:
        errors = []
        for app, plans, samples in self.kept:
            errors.extend(check_plans(app, plans, samples))
        return errors

    def counters(self) -> Dict[str, float]:
        return program_counters(self.stats, self.store)


# ----------------------------------------------------------------------
# cc-evaluate
# ----------------------------------------------------------------------
class CCEvaluate(Workload):
    """Op: a new ``MonteCarloEvaluator`` of the cruise controller at
    1000 scenarios per fault count 0..2 (its seed derived per op) plus
    ``compare()`` of the FTQS (M=39), FTSS and FTSF plans, whose
    kernels were built in setup."""

    name = "cc-evaluate"
    RSS_OPS = 20
    N_SCENARIOS = 1000
    FAULT_COUNTS = (0, 1, 2)
    CHECKS_PER_FAULT_COUNT = 4

    def setup(self) -> None:
        self.store = TreeStore(backend=MemoryBackend())
        self.stats = SynthesisStats()
        self.app = cruise_controller()
        root = ftss(self.app)
        baseline = ftsf(self.app)
        tree = synthesize_tree(
            self.app,
            root,
            FTQSConfig(max_schedules=39),
            stats=self.stats,
            store=self.store,
        )
        self.plans = {"FTQS": tree, "FTSS": root, "FTSF": baseline}
        self.samples = []
        self.next_op = 0
        if not self._op(derive(self.seed, "warm-up")).ok:
            raise RuntimeError("cc-evaluate warm-up op failed")

    def _op(self, op_seed: int) -> Op:
        def evaluate():
            evaluator = MonteCarloEvaluator(
                self.app,
                n_scenarios=self.N_SCENARIOS,
                fault_counts=list(self.FAULT_COUNTS),
                seed=op_seed,
                execution="kernel",
            )
            with evaluator:
                return evaluator.scenarios, evaluator.compare(self.plans)

        op, done = timed_op("evaluate", evaluate)
        if done is not None:
            scenarios, results = done
            rng = np.random.default_rng(derive(op_seed, "check"))
            self.samples.extend(
                sample_outcomes(
                    rng, scenarios, results, self.CHECKS_PER_FAULT_COUNT
                )
            )
        return op

    def run_block(self, seconds: float) -> List[Op]:
        ops = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            ops.append(self._op(derive(self.seed, "op", self.next_op)))
            self._completed_op()
            self.next_op += 1
        return ops

    def check(self) -> List[str]:
        return check_plans(self.app, self.plans, self.samples)

    def counters(self) -> Dict[str, float]:
        return program_counters(self.stats, self.store)


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def _encode(document) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _document_bytes(document) -> bytes:
    """The service's response serialization of a document."""
    return json.dumps(document, indent=2, sort_keys=True).encode("utf-8")


def _cycling(rng, n: int):
    """Endless seeded permutations of ``range(n)``: every item equally
    often."""
    while True:
        yield from (int(i) for i in rng.permutation(n))


#: One service request.  ``key`` is the pool index of a store hit or
#: ``(target, seed)`` of an evaluate; ``keep`` marks a miss or evaluate
#: whose response is kept for the check.
Request = namedtuple("Request", "kind path body key keep")


class ServiceMix(Workload):
    """Two client threads in a closed loop against
    ``repro.service.handlers.dispatch`` on one ``ServiceState`` (memory
    LRU store, ``kernel`` executor, ``max_inflight=2``; no socket).

    The request sequence is 70% ``/v1/schedule`` repeats of a warm pool
    of 20-process apps (store hits), 15% ``/v1/schedule`` calls on apps
    the service has never seen (FTQS plus a store write) and 15%
    ``/v1/evaluate`` calls on a pool tree at 200 scenarios.  Requests
    omit ``max_schedules``, so the default M=16 applies.

    The pool and the never-seen apps come from fixed catalogues, the
    same in every run; the seed drives the request order, the pool and
    target picks and the evaluate seeds.  The mix is exact in every
    stratum of 20 requests, and strata are generated as the clients
    reach them.  (With apps and mix drawn from the seed, five seeds
    spread 31% on ops_per_s on a 2-vCPU host.)

    Every store-hit body is checked against the app's first response
    as it arrives; only the first miss and the first evaluate of a few
    strata drawn from the seed are kept, for the check after the run,
    so the benchmark's own memory does not grow with the request
    count."""

    name = "service-mix"
    RSS_OPS = 200
    CLIENTS = 2
    POOL = 12
    EVALUATE_TARGETS = 3
    STRATUM = ("hit",) * 14 + ("miss",) * 3 + ("evaluate",) * 3
    SCENARIOS = 200
    #: Stratum 0 and this many more, drawn from strata 1..9, have their
    #: first miss and first evaluate checked.
    CHECKED_STRATA = 2
    CHECKED_POOL = 2

    def setup(self) -> None:
        self.store = TreeStore(backend=MemoryBackend())
        self.state = ServiceState(
            ServiceConfig(
                execution="kernel",
                max_inflight=self.CLIENTS,
                store=self.store,
            )
        )
        self.spec = WorkloadSpec(n_processes=20)
        self.pool_bodies = []
        self.first_responses = []
        for j in range(self.POOL):
            app = generate_application(
                self.spec, seed=derive(CATALOGUE_SEED, "pool", j)
            )
            body = _encode({"application": application_to_dict(app)})
            response = self._send("/v1/schedule", body)
            if response.status != 200:
                raise RuntimeError(
                    f"pool schedule failed: {response.status} "
                    f"{response.body[:200]!r}"
                )
            self.pool_bodies.append(body)
            self.first_responses.append(response.body)
        # Evaluate bodies differ only in their seed: keep one template
        # per target and splice the seed in front.
        self.evaluate_templates = []
        for t in range(self.EVALUATE_TARGETS):
            rest = _encode(
                {
                    "application": json.loads(self.pool_bodies[t])[
                        "application"
                    ],
                    "scenarios": self.SCENARIOS,
                    "tree": json.loads(self.first_responses[t]),
                }
            )
            self.evaluate_templates.append(rest[1:])
            # The warm-up op: builds this target's kernel.
            response = self._send(
                "/v1/evaluate", self._evaluate_body(t, 0)
            )
            if response.status != 200:
                raise RuntimeError(
                    f"warm-up evaluate failed: {response.status}"
                )
        self.rng = np.random.default_rng(derive(self.seed, "mix"))
        self.hits = _cycling(self.rng, self.POOL)
        self.targets = _cycling(self.rng, self.EVALUATE_TARGETS)
        self.checked_strata = {0} | {
            int(s)
            for s in np.random.default_rng(derive(self.seed, "strata")).choice(
                np.arange(1, 10), self.CHECKED_STRATA, replace=False
            )
        }
        self.pending = deque()
        self.strata = 0
        self.new_apps = 0
        self.errors = []
        self.kept_misses = []  # (request body, response body)
        self.kept_evaluates = []  # ((target, seed), response body)

    def _evaluate_body(self, target: int, seed: int) -> bytes:
        return b'{"seed": %d, ' % seed + self.evaluate_templates[target]

    def _send(self, path: str, body: bytes):
        return handlers.dispatch(
            self.state, "POST", path, len(body), lambda n: body
        )

    def _next_request(self) -> Request:
        """The next request of the sequence, generating the next
        stratum when the current one is used up (caller holds the
        lock)."""
        if not self.pending:
            keep_miss = keep_evaluate = self.strata in self.checked_strata
            for kind in self.rng.permutation(self.STRATUM):
                if kind == "hit":
                    j = next(self.hits)
                    request = Request(
                        "hit", "/v1/schedule", self.pool_bodies[j], j, False
                    )
                elif kind == "miss":
                    app = generate_application(
                        self.spec,
                        seed=derive(CATALOGUE_SEED, "new", self.new_apps),
                    )
                    self.new_apps += 1
                    body = _encode({"application": application_to_dict(app)})
                    request = Request(
                        "miss", "/v1/schedule", body, None, keep_miss
                    )
                    keep_miss = False
                else:
                    key = (next(self.targets), int(self.rng.integers(1, 2**31)))
                    request = Request(
                        "evaluate", "/v1/evaluate", None, key, keep_evaluate
                    )
                    keep_evaluate = False
                self.pending.append(request)
            self.strata += 1
        return self.pending.popleft()

    def _record(self, request: Request, response) -> None:
        """Check a 200 response on arrival; keep it if the request is
        marked for the check after the run."""
        served = response.headers.get("X-Repro-Store")
        if request.kind == "hit":
            if served != "hit":
                self.errors.append(f"store-hit request served store={served}")
            if response.body != self.first_responses[request.key]:
                self.errors.append(
                    f"store-hit body of pool app {request.key} differs "
                    "from its first response"
                )
        elif request.kind == "miss":
            if served != "miss":
                self.errors.append(f"new-app request served store={served}")
            if request.keep:
                self.kept_misses.append((request.body, response.body))
        elif request.keep:
            self.kept_evaluates.append((request.key, response.body))

    def run_block(self, seconds: float) -> List[Op]:
        lock = threading.Lock()
        block = []
        deadline = time.perf_counter() + seconds

        def client():
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    request = self._next_request()
                body = request.body
                if request.kind == "evaluate":
                    body = self._evaluate_body(*request.key)
                start = time.perf_counter()
                response = self._send(request.path, body)
                latency = time.perf_counter() - start
                ok = response.status == 200
                with lock:
                    block.append(Op(request.kind, start, latency, ok))
                    self._completed_op()
                if ok:
                    self._record(request, response)

        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{i}")
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return block

    def check(self) -> List[str]:
        errors = list(self.errors)
        rng = np.random.default_rng(derive(self.seed, "check"))
        schedules = [
            (self.pool_bodies[j], self.first_responses[j])
            for j in rng.choice(self.POOL, self.CHECKED_POOL, replace=False)
        ] + self.kept_misses
        for body, served in schedules:
            app = application_from_dict(json.loads(body)["application"])
            tree = ftqs(app, ftss(app), FTQSConfig())
            if _document_bytes(tree_to_dict(tree)) != served:
                errors.append(
                    "/v1/schedule body differs from a direct FTQS build"
                )
        for (target, seed), served in self.kept_evaluates:
            errors.extend(self._check_evaluate(target, seed, served))
        return errors

    def _check_evaluate(self, target, seed, served) -> List[str]:
        document = json.loads(served)
        app = application_from_dict(
            json.loads(self.pool_bodies[target])["application"]
        )
        tree = tree_from_dict(app, json.loads(self.first_responses[target]))
        evaluator = MonteCarloEvaluator(
            app, n_scenarios=self.SCENARIOS, seed=seed, execution="reference"
        )
        with evaluator:
            outcomes = evaluator.evaluate(tree)
        expected = {
            str(faults): {
                "mean_utility": outcome.mean_utility,
                "mean_switches": outcome.mean_switches,
                "mean_faults": outcome.mean_faults,
                "deadline_misses": outcome.deadline_misses,
                "n_scenarios": outcome.n_scenarios,
                "ok": outcome.ok,
            }
            for faults, outcome in sorted(outcomes.items())
        }
        if document["outcomes"] != expected:
            return [
                f"/v1/evaluate (target {target}, seed {seed}) differs "
                "from a direct reference evaluation"
            ]
        return []

    def counters(self) -> Dict[str, float]:
        return program_counters(self.state.stats, self.store)

    def class_metrics(self, ops: List[Op]):
        lines = []
        latencies = [op.latency * 1000.0 for op in ops]
        p90 = percentile(latencies, 90)
        lines.append(
            ("latency_p90_ms", p90, "ms",
             f"{samples_beyond(len(latencies), 90)} requests beyond it"
             if p90 is not None else
             f"fewer than {MIN_BEYOND} requests beyond p90")
        )
        for kind in ("hit", "miss", "evaluate"):
            values = [op.latency * 1000.0 for op in ops if op.kind == kind]
            name = (
                "evaluate_p50_ms" if kind == "evaluate"
                else f"schedule_{kind}_p50_ms"
            )
            lines.append(
                (name, median(values) if values else None, "ms",
                 f"n={len(values)}")
            )
        return lines

    def close(self) -> None:
        self.state.close()


WORKLOADS = {w.name: w for w in (Fig9Cold, CCEvaluate, ServiceMix)}
