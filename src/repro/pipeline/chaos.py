"""Deterministic fault injection for the fault-tolerance layer.

The paper's schedules are *designed* to survive k transient faults;
this module gives the harness its own transient faults so the tests
can prove the execution layer survives too.  A :class:`ChaosPlan` is a
seedable, fully deterministic schedule of injected failures across the
three recovery paths:

* **worker faults** — kill (``SIGKILL``) or wedge the pool worker that
  picks up task *i* of a :meth:`TaskPool.map
  <repro.runtime.engine.parallel.TaskPool.map>` call.  The action is
  decided *parent-side at dispatch time* from the task index and the
  retry attempt, so a run under chaos is reproducible for any worker
  count or scheduling order;
* **store faults** — raise :class:`ConnectionError` on chosen raw
  store operations, exercising the retry/backoff and circuit-breaker
  paths of :class:`~repro.pipeline.store.resilient.ResilientBackend`;
* **run kills** — raise :class:`ChaosKill` immediately after the Nth
  row reaches the checkpoint journal, modelling a sweep killed between
  rows (the journal write has already been fsynced, so ``--resume``
  picks up exactly there);
* **service faults** — wedge the Nth ``repro serve`` compute request
  inside its worker (``slow-request@N``), driving the service's
  deadline, backpressure and drain-timeout paths the same
  deterministic way.

The plan is installed process-globally (:func:`activate` /
:func:`active`); the hooks are consulted through :func:`current` by
the pool, the resilient store wrapper and the checkpoint journal.
Nothing here imports the rest of the pipeline — the module is
dependency-free so any layer can consult it without cycles.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional


class ChaosKill(BaseException):
    """The injected 'the process was killed here' signal.

    A :class:`BaseException` (like ``KeyboardInterrupt``) on purpose:
    it must unwind through the experiment loop's ordinary ``except
    Exception`` robustness handlers exactly the way a real ``SIGKILL``
    would simply not run them.
    """


@dataclass
class ChaosPlan:
    """One deterministic schedule of injected faults.

    Parameters
    ----------
    kill_worker:
        ``{task index: times}`` — the worker dispatched task *i* of a
        pool map is SIGKILLed on its first ``times`` delivery
        attempts.  ``times`` larger than the pool's retry budget
        forces the in-process degradation path.
    hang_worker:
        Task indices whose first delivery wedges the worker (it never
        answers); recovery needs a pool ``task_timeout``.
    store_fail_ops:
        1-based indices into the run's sequence of raw resilient-store
        operations (each retry attempt counts) that raise
        :class:`ConnectionError`.
    slow_request:
        ``{request index: seconds}`` — the Nth (1-based) service
        compute request sleeps that long inside its worker before the
        real work, modelling a request wedged past its deadline (and,
        with several of them, sustained load on the bounded queue).
    kill_run_after_rows:
        Raise :class:`ChaosKill` right after this many rows have been
        journaled to the checkpoint.
    kernel_fail:
        1-based indices into the process's sequence of kernel compile
        attempts (``repro.runtime.engine.kernel.build``) that fail
        deterministically — the simulator then degrades to the
        reference oracle with a counted ``"chaos"`` reason, results
        unchanged.
    thread_fail:
        1-based indices into the process's sequence of threaded
        evaluations (``repro.runtime.engine.threads``) that fail
        deterministically — the evaluation then re-routes to process
        sharding with a counted ``"chaos"`` reason, results unchanged.
    kill_budget:
        Optional cap on the *total* number of worker kills/hangs
        delivered, across every map call of the run.
    seed:
        Seed of the ``store-fail@~K/N`` random draw in :meth:`parse`.
    """

    kill_worker: Dict[int, int] = field(default_factory=dict)
    hang_worker: FrozenSet[int] = frozenset()
    store_fail_ops: FrozenSet[int] = frozenset()
    slow_request: Dict[int, float] = field(default_factory=dict)
    kill_run_after_rows: Optional[int] = None
    kernel_fail: FrozenSet[int] = frozenset()
    thread_fail: FrozenSet[int] = frozenset()
    kill_budget: Optional[int] = None
    seed: int = 0

    # Runtime counters (reset on activation).
    kills_delivered: int = 0
    hangs_delivered: int = 0
    store_ops_seen: int = 0
    store_failures_injected: int = 0
    rows_journaled: int = 0
    service_requests_seen: int = 0
    slow_requests_injected: int = 0
    kernel_compiles_seen: int = 0
    kernel_failures_injected: int = 0
    thread_evals_seen: int = 0
    thread_failures_injected: int = 0

    def reset(self) -> None:
        self.kills_delivered = 0
        self.hangs_delivered = 0
        self.store_ops_seen = 0
        self.store_failures_injected = 0
        self.rows_journaled = 0
        self.service_requests_seen = 0
        self.slow_requests_injected = 0
        self.kernel_compiles_seen = 0
        self.kernel_failures_injected = 0
        self.thread_evals_seen = 0
        self.thread_failures_injected = 0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _budget_left(self) -> bool:
        if self.kill_budget is None:
            return True
        return (
            self.kills_delivered + self.hangs_delivered < self.kill_budget
        )

    def pool_action(self, index: int, attempt: int) -> Optional[str]:
        """The fault to inject for delivery ``attempt`` of task
        ``index`` — ``"kill"``, ``"hang"`` or ``None``.  Consulted by
        the pool parent-side at dispatch, so the decision (and hence
        the whole recovery trace) is deterministic."""
        if not self._budget_left():
            return None
        if attempt < self.kill_worker.get(index, 0):
            self.kills_delivered += 1
            return "kill"
        if attempt == 0 and index in self.hang_worker:
            self.hangs_delivered += 1
            return "hang"
        return None

    def store_op(self) -> None:
        """Called before every raw resilient-store attempt; raises
        :class:`ConnectionError` on the scheduled ones."""
        self.store_ops_seen += 1
        if self.store_ops_seen in self.store_fail_ops:
            self.store_failures_injected += 1
            raise ConnectionError(
                f"chaos: injected transport failure on store op "
                f"{self.store_ops_seen}"
            )

    def service_request(self) -> float:
        """Called by the service at the start of each compute request;
        returns the injected delay in seconds (0.0 = undisturbed).
        The sleep happens *inside* the request's worker, so a slow
        request occupies real queue capacity exactly the way a wedged
        synthesis would."""
        self.service_requests_seen += 1
        delay = self.slow_request.get(self.service_requests_seen, 0.0)
        if delay > 0.0:
            self.slow_requests_injected += 1
        return delay

    def kernel_compile(self) -> None:
        """Called before every kernel compiler invocation; raises
        :class:`RuntimeError` on the scheduled attempts, which the
        build layer surfaces as a counted ``"chaos"`` degradation to
        the reference oracle (results unchanged, speed lost)."""
        self.kernel_compiles_seen += 1
        if self.kernel_compiles_seen in self.kernel_fail:
            self.kernel_failures_injected += 1
            raise RuntimeError(
                f"chaos: injected kernel compile failure on attempt "
                f"{self.kernel_compiles_seen}"
            )

    def thread_eval(self) -> None:
        """Called at the start of every threaded evaluation; raises
        :class:`RuntimeError` on the scheduled ones, which the threaded
        executor surfaces as a counted ``"chaos"`` fallback to process
        sharding (results unchanged, threads lost for that call)."""
        self.thread_evals_seen += 1
        if self.thread_evals_seen in self.thread_fail:
            self.thread_failures_injected += 1
            raise RuntimeError(
                f"chaos: injected threaded-evaluation failure on "
                f"attempt {self.thread_evals_seen}"
            )

    def row_written(self) -> None:
        """Called after each journaled checkpoint row; raises
        :class:`ChaosKill` once the configured row count is reached.
        The row is already on disk, so a resumed run reuses it."""
        self.rows_journaled += 1
        if self.kill_run_after_rows is not None and (
            self.rows_journaled == self.kill_run_after_rows
        ):
            raise ChaosKill(
                f"run killed after {self.rows_journaled} journaled "
                f"row(s)"
            )

    # ------------------------------------------------------------------
    # CLI spec parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Build a plan from a comma-separated CLI token list.

        Tokens: ``kill-worker@I`` (once) / ``kill-worker@IxN`` (N
        times), ``hang-worker@I``, ``store-fail@N`` (the Nth raw store
        op) / ``store-fail@A-B`` (every op in the range) /
        ``store-fail@~K/N`` (K seeded-random ops among the first N),
        ``slow-request@N`` (wedge the Nth service compute request for
        30 s) / ``slow-request@NxS`` (for S seconds, float),
        ``kill-run@N`` (after the Nth journaled row),
        ``kernel-fail@N`` (the Nth kernel compile attempt) /
        ``kernel-fail@A-B`` (every attempt in the range),
        ``thread-fail@N`` (the Nth threaded evaluation) /
        ``thread-fail@A-B`` (every evaluation in the range),
        ``budget@N``, ``seed@S``.
        """
        kill_worker: Dict[int, int] = {}
        hang_worker = set()
        store_fail = set()
        slow_request: Dict[int, float] = {}
        kernel_fail = set()
        thread_fail = set()
        random_fail = None
        kill_run = None
        budget = None
        seed = 0
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, value = token.partition("@")
            if not sep:
                raise ValueError(
                    f"bad chaos token {token!r} (expected name@value)"
                )
            try:
                if name == "kill-worker":
                    match = re.fullmatch(r"(\d+)(?:x(\d+))?", value)
                    if not match:
                        raise ValueError(value)
                    kill_worker[int(match.group(1))] = int(
                        match.group(2) or 1
                    )
                elif name == "hang-worker":
                    hang_worker.add(int(value))
                elif name == "store-fail":
                    if value.startswith("~"):
                        count, _, span = value[1:].partition("/")
                        random_fail = (int(count), int(span))
                    else:
                        match = re.fullmatch(r"(\d+)(?:-(\d+))?", value)
                        if not match:
                            raise ValueError(value)
                        lo = int(match.group(1))
                        hi = int(match.group(2) or lo)
                        if hi < lo:
                            raise ValueError(
                                f"empty range {lo}-{hi}"
                            )
                        store_fail.update(range(lo, hi + 1))
                elif name == "slow-request":
                    match = re.fullmatch(
                        r"(\d+)(?:x(\d+(?:\.\d+)?))?", value
                    )
                    if not match:
                        raise ValueError(value)
                    slow_request[int(match.group(1))] = float(
                        match.group(2) or 30.0
                    )
                elif name == "kill-run":
                    kill_run = int(value)
                elif name in ("kernel-fail", "thread-fail"):
                    match = re.fullmatch(r"(\d+)(?:-(\d+))?", value)
                    if not match:
                        raise ValueError(value)
                    lo = int(match.group(1))
                    hi = int(match.group(2) or lo)
                    if hi < lo:
                        raise ValueError(f"empty range {lo}-{hi}")
                    target = (
                        kernel_fail if name == "kernel-fail" else thread_fail
                    )
                    target.update(range(lo, hi + 1))
                elif name == "budget":
                    budget = int(value)
                elif name == "seed":
                    seed = int(value)
                else:
                    raise ValueError(
                        f"unknown chaos token {name!r} (know "
                        f"kill-worker, hang-worker, store-fail, "
                        f"slow-request, kill-run, kernel-fail, "
                        f"thread-fail, budget, seed)"
                    )
            except ValueError as exc:
                if "chaos token" in str(exc):
                    raise
                raise ValueError(
                    f"bad chaos token {token!r}: {exc}"
                ) from None
        if random_fail is not None:
            count, span = random_fail
            rng = random.Random(seed)
            store_fail.update(rng.sample(range(1, span + 1), k=count))
        return cls(
            kill_worker=kill_worker,
            hang_worker=frozenset(hang_worker),
            store_fail_ops=frozenset(store_fail),
            slow_request=slow_request,
            kill_run_after_rows=kill_run,
            kernel_fail=frozenset(kernel_fail),
            thread_fail=frozenset(thread_fail),
            kill_budget=budget,
            seed=seed,
        )


#: The process-wide active plan (None = no chaos).
_ACTIVE: Optional[ChaosPlan] = None


def activate(plan: ChaosPlan) -> ChaosPlan:
    """Install ``plan`` (counters reset) as the process-wide plan."""
    global _ACTIVE
    plan.reset()
    _ACTIVE = plan
    return plan


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def current() -> Optional[ChaosPlan]:
    """The active plan, or ``None``; consulted by the fault hooks."""
    return _ACTIVE


@contextmanager
def active(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """``with active(plan):`` — scoped activation, always deactivated."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()
