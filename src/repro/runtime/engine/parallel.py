"""Sharded Monte-Carlo evaluation across ``multiprocessing`` workers.

:class:`ParallelEvaluator` is the ``mode="processes"`` executor of a
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator`: it splits
the scenario index range into contiguous shards, one per worker.  The
evaluator's :class:`ScenarioBatch` arrays are published once as two
``multiprocessing.shared_memory`` segments — the execution times all
fault-count sets share and their stacked fault counts — and reach the
workers as a :class:`WorkerContext`: each worker attaches the segments
the first time it sees the context and never copies or re-derives the
scenario data.  Shard boundaries select which slice a worker simulates;
per-scenario results are independent of the slicing, so the merged
:class:`~repro.evaluation.montecarlo.EvaluationOutcome` per fault
count is identical to a single-process run, for any worker count.

The pool is *persistent*: it is acquired lazily on the first
``evaluate()`` and reused across ``evaluate()``/``compare()`` calls
for the executor's lifetime, so comparing many plans pays the
fork/attach cost once.  It is either spawned by the executor or
borrowed from a :class:`~repro.pipeline.resources.ResourceManager`;
both run the same context-carrying tasks
(``tests/test_parallel_pool.py`` pins the pool reuse).  A task
carries the plan and its scenario range; the worker builds the plan's
simulator for it and runs every fault count's rows through
``run_batch`` (:func:`simulate_rows`, the shard task the thread
executor runs too), sending back only each set's utilities array and
integer sums (:class:`BatchTotals`).  Nothing keeps a plan past its
evaluation, on either side: for the kernel engine a worker finds a
plan's tables in its own content-keyed table memo when it has lowered
that plan before.  The parent builds the core before fanning out, so
workers inherit it (or load it from the shared artifact cache) instead
of racing to build it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import sys
import time
import warnings
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, shared_memory
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeModelError
from repro.execution import ExecutionConfig
from repro.runtime.engine.simulator import BatchTotals

#: Parent-side source of unique :class:`WorkerContext` tokens.
_CONTEXT_TOKENS = itertools.count(1)


class WorkerContext(NamedTuple):
    """Per-worker state for the tasks of one :meth:`TaskPool.map`.

    ``factory(*args)`` builds the state a worker hands to the task
    function as ``fn(state, task)``; ``token`` names it.  The pool
    ships a context to a worker only the first time that worker sees
    its token (and again after a respawn).  A worker keeps only its
    latest context: a new token releases the previous state (through
    its ``close()``, when it has one) before building the new one.
    """

    token: int
    factory: Callable
    args: Tuple

    @classmethod
    def of(cls, factory: Callable, *args) -> "WorkerContext":
        """A context with a fresh parent-process-unique token."""
        return cls(next(_CONTEXT_TOKENS), factory, args)

    def build(self):
        return self.factory(*self.args)


def _release_state(held: Optional[Tuple[int, object]]) -> None:
    """Close the state of a held ``(token, state)`` pair, if any."""
    close = getattr(held[1], "close", None) if held is not None else None
    if close is not None:
        close()


def shard_bounds(n_scenarios: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal scenario ranges, one per shard.

    Deterministic in (``n_scenarios``, ``workers``) — the foundation of
    outcome-preserving sharding for both the process and the thread
    executors.
    """
    shards = min(workers, n_scenarios)
    size, extra = divmod(n_scenarios, shards)
    bounds = []
    lo = 0
    for shard in range(shards):
        hi = lo + size + (1 if shard < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def simulate_rows(simulator, batches, lo: int, hi: int):
    """Simulate scenarios ``[lo, hi)`` of every scenario set with one
    plan's :class:`~repro.runtime.engine.simulator.BatchSimulator` —
    the shard task of both executors: each set's :class:`BatchTotals`."""
    return {
        faults: simulator.run_batch(batch.rows(lo, hi)).totals()
        for faults, batch in batches.items()
    }


def merge_shard_outcomes(
    fault_counts: Sequence[int], shards: Sequence[Dict[int, BatchTotals]]
) -> Dict[int, "EvaluationOutcome"]:
    """Merge per-shard results in shard (= scenario range) order.

    Per-scenario results are independent of the slicing, so merging the
    shards of :func:`shard_bounds` reproduces a single in-process run
    bit for bit, for any shard count.  Shared by the process and the
    thread executors.
    """
    from repro.evaluation.montecarlo import EvaluationOutcome

    return {
        faults: EvaluationOutcome.of([shard[faults] for shard in shards])
        for faults in fault_counts
    }


#: The published scenario sets: (process names, fault counts in set
#: order, shm name of the shared durations, durations shape, shm name
#: of the stacked ``(fault counts, scenarios, processes)`` fault counts).
_ScenarioSpec = Tuple[
    Tuple[str, ...], Tuple[int, ...], str, Tuple[int, int, int], str
]


def _shared_array(segment: shared_memory.SharedMemory, shape) -> np.ndarray:
    """An int64 array of ``shape`` over ``segment``'s buffer."""
    return np.ndarray(shape, dtype=np.int64, buffer=segment.buf)


class _EvaluationWorker:
    """A pool worker's state for one evaluator (its
    :class:`WorkerContext`): the attached shared-memory scenario
    sets."""

    def __init__(self, app, spec: _ScenarioSpec, engine):
        from repro.runtime.engine.batch import ScenarioBatch

        self.app = app
        self.engine = engine
        names, fault_counts, durations_name, shape, counts_name = spec
        self._segments = [
            shared_memory.SharedMemory(name=durations_name),
            shared_memory.SharedMemory(name=counts_name),
        ]
        durations = _shared_array(self._segments[0], shape)
        counts = _shared_array(
            self._segments[1], (len(fault_counts),) + shape[:2]
        )
        durations.flags.writeable = False
        counts.flags.writeable = False
        self.batches: Dict[int, ScenarioBatch] = {
            faults: ScenarioBatch(names, durations, counts[i])
            for i, faults in enumerate(fault_counts)
        }

    def close(self) -> None:
        """Drop the segment attachments (the parent owns the unlink)."""
        self.batches = {}
        for segment in self._segments:
            segment.close()
        self._segments = []


def _simulate_slice(state: _EvaluationWorker, task):
    """Worker entry point: build the plan's simulator and simulate
    scenarios ``[lo, hi)`` of each set with it."""
    from repro.evaluation.montecarlo import simulator_for

    plan, lo, hi = task
    return simulate_rows(
        simulator_for(state.engine, state.app, plan), state.batches, lo, hi
    )


def _release(pool, segments) -> None:
    """Tear down a pool and its shared segments (idempotent-by-use)."""
    if pool is not None:
        pool.terminate()
        pool.join()
    for segment in segments:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@dataclass
class PoolRecovery:
    """Counters of one pool's (or the process's) fault handling.

    ``worker_deaths`` counts workers that died unexpectedly mid-run
    (a crash or SIGKILL), ``timeouts`` workers killed for exceeding the
    per-task deadline, ``respawns`` replacement workers forked,
    ``task_retries`` tasks re-dispatched after losing their worker,
    ``degraded_tasks`` tasks that exhausted their retry budget and ran
    in-process instead, and ``pool_degradations`` pools that spent
    their whole respawn budget and finished the run in-process
    (N workers → none, with a warning, never an abort).
    """

    worker_deaths: int = 0
    timeouts: int = 0
    respawns: int = 0
    task_retries: int = 0
    degraded_tasks: int = 0
    pool_degradations: int = 0

    def any(self) -> bool:
        return bool(
            self.worker_deaths
            or self.timeouts
            or self.respawns
            or self.task_retries
            or self.degraded_tasks
            or self.pool_degradations
        )

    def summary(self) -> str:
        parts = [
            f"{self.worker_deaths} worker death(s)",
            f"{self.respawns} respawn(s)",
            f"{self.task_retries} retried task(s)",
        ]
        if self.timeouts:
            parts.append(f"{self.timeouts} timeout(s)")
        if self.degraded_tasks:
            parts.append(
                f"{self.degraded_tasks} in-process fallback task(s)"
            )
        if self.pool_degradations:
            parts.append(
                f"{self.pool_degradations} pool(s) degraded to "
                f"in-process"
            )
        return " / ".join(parts)


#: Process-wide aggregate over every pool (the CLI summary line reads
#: this; :func:`reset_pool_recovery` scopes it to one invocation).
_GLOBAL_RECOVERY = PoolRecovery()


def pool_recovery() -> PoolRecovery:
    """The process-wide recovery counters (live object)."""
    return _GLOBAL_RECOVERY


def reset_pool_recovery() -> None:
    """Zero the process-wide counters (start of a CLI invocation)."""
    _GLOBAL_RECOVERY.worker_deaths = 0
    _GLOBAL_RECOVERY.timeouts = 0
    _GLOBAL_RECOVERY.respawns = 0
    _GLOBAL_RECOVERY.task_retries = 0
    _GLOBAL_RECOVERY.degraded_tasks = 0
    _GLOBAL_RECOVERY.pool_degradations = 0


def _chaos_plan():
    """The active chaos plan, without importing the chaos module.

    Consulting ``sys.modules`` keeps this layer free of a pipeline
    import (no cycle) and free even of the import cost: a plan can
    only be active if something already imported and activated it.
    """
    module = sys.modules.get("repro.pipeline.chaos")
    return module.current() if module is not None else None


def _apply_chaos_action(action: str) -> None:  # pragma: no cover - dies
    """Worker-side execution of an injected fault."""
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        while True:
            time.sleep(3600.0)


def _portable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a picklable stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeModelError(f"worker task failed: {exc!r}")


def _pool_worker_main(task_r, result_w) -> None:
    """Worker process body: a recv→run→send loop.

    Messages are ``(gen, seq, fn, task, chaos_action, token,
    context)``; replies are ``(gen, seq, ok, result_or_exception)``.
    ``gen`` identifies the :meth:`TaskPool.map` call, so the parent can
    discard results of an aborted map instead of mistaking them for the
    current one's.  ``token`` is None for context-free maps; otherwise
    the task runs against the state of that token, rebuilt from
    ``context`` whenever the parent ships one.
    """
    held: Optional[Tuple[int, object]] = None
    while True:
        try:
            item = task_r.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        gen, seq, fn, task, action, token, context = item
        if action is not None:
            _apply_chaos_action(action)
        try:
            if context is not None:
                _release_state(held)
                held = None  # a failed build must not leave it in use
                held = (context.token, context.build())
            if token is None:
                result = fn(task)
            elif held is not None and held[0] == token:
                result = fn(held[1], task)
            else:
                raise RuntimeModelError(
                    f"worker holds no context for token {token}"
                )
            payload = (gen, seq, True, result)
        except BaseException as exc:
            payload = (gen, seq, False, _portable_exception(exc))
        try:
            result_w.send(payload)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:  # unpicklable result
            result_w.send(
                (
                    gen,
                    seq,
                    False,
                    RuntimeModelError(
                        f"worker result not picklable: {exc!r}"
                    ),
                )
            )


class _Worker:
    """One worker process plus its private task/result pipes.

    Per-worker pipes (instead of shared queues) are the crash-safety
    foundation: a worker SIGKILLed mid-``send`` can only tear its own
    channel, never wedge a lock other workers and the parent share —
    the classic way ``multiprocessing.Pool.map`` deadlocks on a dead
    worker.
    """

    __slots__ = ("process", "task_w", "result_r", "current", "token")

    def __init__(self, process, task_w, result_r):
        self.process = process
        self.task_w = task_w
        self.result_r = result_r
        #: (gen, seq, dispatched_at) of the in-flight task, or None.
        self.current: Optional[Tuple[int, int, float]] = None
        #: Token of the context this worker holds, or None.
        self.token: Optional[int] = None


#: Parent poll interval while waiting on results/sentinels.
_POLL_SECONDS = 0.05


class TaskPool:
    """Small task-sharding facade over a persistent worker pool.

    Runs arbitrary picklable tasks on workers spawned once and reused
    for every :meth:`map` call.  ``map`` preserves task order, so a
    caller that merges results positionally is deterministic for any
    worker count.  Workers hold no application state of their own:
    whatever a task function needs beyond its task (an application,
    published scenario segments) travels as a :class:`WorkerContext`
    that each worker builds once per context token.  One pool can
    therefore serve any number of applications in sequence — which is
    how :class:`repro.pipeline.resources.ResourceManager` shares one
    pool across an experiment run.  Its user is
    :class:`ParallelEvaluator`: scenario-slice tasks over shared
    scenario batches.

    **Fault tolerance.**  The pool runs its own workers over private
    pipes and supervises them through their process sentinels, so a
    worker that dies mid-task (a crash, an OOM kill, injected chaos)
    is *detected* — not hung on, which is what
    ``multiprocessing.Pool.map`` does — and its task is re-dispatched
    to a respawned worker.  Task results are pure functions of the
    task, so a retry is bit-identical to an undisturbed run.  Each
    task gets at most ``task_retries`` re-dispatches before it runs
    in-process (a counted, warned degradation, never an abort); a pool
    that burns its whole respawn budget degrades to in-process
    execution for the rest of the run the same way.  ``task_timeout``
    (seconds, ``None`` = wait forever) additionally treats an
    over-deadline task's worker as dead.  Per-pool counters live on
    :attr:`recovery`; process-wide aggregates on
    :func:`pool_recovery`.
    """

    def __init__(
        self,
        processes: int,
        task_timeout: Optional[float] = None,
        task_retries: int = 2,
    ):
        if processes < 1:
            raise RuntimeModelError(
                f"worker count must be positive, got {processes}"
            )
        if task_timeout is not None and task_timeout <= 0:
            raise RuntimeModelError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        if task_retries < 0:
            raise RuntimeModelError(
                f"task_retries must be >= 0, got {task_retries}"
            )
        # Start the shared-memory resource tracker *before* forking
        # workers.  A pool is often spawned before the first
        # SharedMemory segment exists; workers forked without a running
        # tracker would each lazily start their own on attach, and those
        # private trackers double-unlink the parent's segments at
        # shutdown (spurious "leaked shared_memory" warnings).
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self.processes = processes
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.recovery = PoolRecovery()
        self._ctx = multiprocessing.get_context()
        #: (token, state) of the context degraded tasks run against.
        self._inline: Optional[Tuple[int, object]] = None
        self._closed = False
        self._degraded = False
        self._respawn_budget = max(4, 2 * processes)
        self._gen = 0
        self._workers: List[_Worker] = [
            self._spawn_worker() for _ in range(processes)
        ]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(task_r, result_w),
            daemon=True,
        )
        process.start()
        # Parent keeps the write end of tasks, read end of results.
        task_r.close()
        result_w.close()
        return _Worker(process, task_w, result_r)

    @staticmethod
    def _stop_worker(worker: _Worker) -> None:
        """Kill/join/close one worker; never raises (crash-safe)."""
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except Exception:
            pass
        try:
            worker.process.join(timeout=5.0)
        except Exception:
            pass
        for pipe in (worker.task_w, worker.result_r):
            try:
                pipe.close()
            except Exception:
                pass

    def _note(self, counter: str, amount: int = 1) -> None:
        setattr(
            self.recovery, counter, getattr(self.recovery, counter) + amount
        )
        setattr(
            _GLOBAL_RECOVERY,
            counter,
            getattr(_GLOBAL_RECOVERY, counter) + amount,
        )

    def _run_inline(self, fn, task, context):
        """In-process degraded execution (bit-identical by purity),
        building the context once per token like a worker would."""
        if context is None:
            return fn(task)
        if self._inline is None or self._inline[0] != context.token:
            _release_state(self._inline)
            self._inline = None  # a failed build must not leave it in use
            self._inline = (context.token, context.build())
        return fn(self._inline[1], task)

    def _degrade(self, pending: deque) -> None:
        """Give up on worker processes for the rest of this pool's life."""
        self._note("pool_degradations")
        warnings.warn(
            "TaskPool spent its worker respawn budget; finishing the "
            "run in-process (results are unchanged, parallelism is "
            "lost)",
            RuntimeWarning,
            stacklevel=3,
        )
        for worker in self._workers:
            if worker.current is not None:
                pending.append(worker.current[1])
            self._stop_worker(worker)
        self._workers = []
        self._degraded = True

    # ------------------------------------------------------------------
    # map
    # ------------------------------------------------------------------
    def map(self, fn, tasks, context: Optional[WorkerContext] = None):
        """Run ``fn`` over ``tasks``; results in task order.

        Without a ``context`` each task runs as ``fn(task)``; with one,
        as ``fn(state, task)`` against the worker's state built from
        it (see :class:`WorkerContext`).  Worker crashes, injected
        chaos kills and task timeouts are recovered internally (see the
        class docstring); the only exceptions that propagate are the
        task function's own.
        """
        if self._closed:
            raise RuntimeModelError("cannot map on a closed TaskPool")
        tasks = list(tasks)
        if not tasks:
            return []
        self._gen += 1
        gen = self._gen
        plan = _chaos_plan()
        n = len(tasks)
        results: List = [None] * n
        done = [False] * n
        attempts = [0] * n
        pending: deque = deque(range(n))
        inline: deque = deque()
        remaining = n

        while remaining:
            if self._degraded or not self._workers:
                if not self._degraded:
                    self._degrade(pending)
                inline.extend(pending)
                pending.clear()
            while inline:
                seq = inline.popleft()
                if done[seq]:
                    continue
                results[seq] = self._run_inline(fn, tasks[seq], context)
                done[seq] = True
                remaining -= 1
            if not remaining:
                break
            self._dispatch(
                fn, tasks, context, gen, pending, done, attempts, plan
            )
            remaining -= self._collect(gen, results, done)
            self._reap(gen, pending, inline, done, attempts)
        return results

    def _dispatch(
        self, fn, tasks, context, gen, pending, done, attempts, plan
    ):
        """Hand pending tasks to idle live workers, shipping the context
        to any worker that does not hold its token yet."""
        token = None if context is None else context.token
        for worker in self._workers:
            if not pending:
                return
            if worker.current is not None or not worker.process.is_alive():
                continue
            seq = pending.popleft()
            while done[seq] and pending:
                seq = pending.popleft()
            if done[seq]:
                return
            action = (
                plan.pool_action(seq, attempts[seq])
                if plan is not None
                else None
            )
            ship = (
                context
                if context is not None and worker.token != token
                else None
            )
            try:
                worker.task_w.send(
                    (gen, seq, fn, tasks[seq], action, token, ship)
                )
            except (BrokenPipeError, OSError):
                # Died since the last reap; the next reap respawns it.
                pending.appendleft(seq)
                continue
            if ship is not None:
                worker.token = token
            worker.current = (gen, seq, time.monotonic())

    def _collect(self, gen, results, done) -> int:
        """Wait briefly for results; returns how many tasks finished.

        Waits on the busy workers' result pipes *and* their process
        sentinels, so a SIGKILLed worker wakes the parent immediately
        instead of stalling the map until a timeout.
        """
        busy = [w for w in self._workers if w.current is not None]
        if not busy:
            return 0
        by_pipe = {w.result_r: w for w in busy}
        sentinels = [w.process.sentinel for w in busy]
        ready = connection.wait(
            list(by_pipe) + sentinels, timeout=_POLL_SECONDS
        )
        collected = 0
        for obj in ready:
            worker = by_pipe.get(obj)
            if worker is None:
                continue  # a sentinel: the reap pass handles the death
            try:
                rgen, seq, ok, payload = worker.result_r.recv()
            except (EOFError, OSError):
                continue  # torn mid-send: reaped as a crash
            # One in-flight task per worker, FIFO: any reply frees it.
            worker.current = None
            if not ok:
                # The failure may have been the context build: ship the
                # context again with this worker's next task.
                worker.token = None
            if rgen != gen or done[seq]:
                continue  # stale reply from an aborted or retried map
            if not ok:
                raise payload
            results[seq] = payload
            done[seq] = True
            collected += 1
        return collected

    def _reap(self, gen, pending, inline, done, attempts) -> None:
        """Detect dead/over-deadline workers; requeue, respawn."""
        now = time.monotonic()
        for worker in list(self._workers):
            crashed = not worker.process.is_alive()
            timed_out = (
                not crashed
                and worker.current is not None
                and self.task_timeout is not None
                and now - worker.current[2] > self.task_timeout
            )
            if not crashed and not timed_out:
                continue
            self._note("timeouts" if timed_out else "worker_deaths")
            current = worker.current
            self._stop_worker(worker)
            self._workers.remove(worker)
            if current is not None:
                cgen, seq, _ = current
                if cgen == gen and not done[seq]:
                    attempts[seq] += 1
                    if attempts[seq] > self.task_retries:
                        self._note("degraded_tasks")
                        warnings.warn(
                            f"pool task {seq} lost its worker "
                            f"{attempts[seq]} times; degrading it to "
                            f"in-process execution (result unchanged)",
                            RuntimeWarning,
                            stacklevel=4,
                        )
                        inline.append(seq)
                    else:
                        self._note("task_retries")
                        pending.append(seq)
            if self._respawn_budget > 0:
                self._respawn_budget -= 1
                self._note("respawns")
                self._workers.append(self._spawn_worker())

    # -- lifecycle (terminate/join mirror multiprocessing.Pool so the
    # facade drops into code that managed a raw Pool before) ----------
    def terminate(self) -> None:
        """Signal every worker to stop (idempotent, crash-safe)."""
        for worker in self._workers:
            try:
                if worker.process.is_alive():
                    worker.process.terminate()
            except Exception:
                pass

    def join(self) -> None:
        """Reap every worker and release their pipes (idempotent)."""
        for worker in self._workers:
            self._stop_worker(worker)
        self._workers = []
        _release_state(self._inline)
        self._inline = None
        self._closed = True

    def close(self) -> None:
        """Terminate the workers (idempotent, safe after crashes)."""
        self.terminate()
        self.join()

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedExecutor:
    """What the process and the thread executors share.

    An executor belongs to one
    :class:`~repro.evaluation.montecarlo.MonteCarloEvaluator` (its
    *source*), which builds it through
    :meth:`~repro.evaluation.montecarlo.MonteCarloEvaluator.executor`,
    caches it per :class:`~repro.execution.ExecutionConfig` and
    supplies the scenario sets (its ``scenarios``).  The source owns
    the executor, so the executor holds it weakly: a strong
    back-reference would form a cycle that delays pool/segment release
    until a cyclic GC pass instead of freeing promptly by refcount.
    ``evaluate`` builds the plan's simulator, runs the shards and
    merges them into the same ``{fault count: EvaluationOutcome}``
    mapping an inline run produces; it keeps no plan afterwards.
    """

    def __init__(self, source, execution) -> None:
        self.execution = ExecutionConfig.coerce(execution)
        self.app = source.app
        self.n_scenarios = source.n_scenarios
        self.fault_counts = list(source.fault_counts)
        self._source_ref = weakref.ref(source)

    def _source(self):
        source = self._source_ref()
        if source is None:
            raise RuntimeModelError(
                "executor used after its MonteCarloEvaluator was "
                "garbage-collected; keep the evaluator alive while "
                "using its executors"
            )
        return source

    def _inline(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """One shard: simulate in-process over the source's batches."""
        return self._source().evaluate(
            plan, execution=self.execution.engine
        )

    def compare(self, plans) -> Dict[str, Dict[int, "EvaluationOutcome"]]:
        """Evaluate several named plans over the persistent pool."""
        return {name: self.evaluate(plan) for name, plan in plans.items()}

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelEvaluator(ShardedExecutor):
    """Deterministic process-sharded Monte-Carlo evaluation (the
    ``mode="processes"`` executor; see the module docstring).

    ``pool`` may be a :class:`TaskPool` borrowed from a
    :class:`repro.pipeline.resources.ResourceManager`; without one the
    executor spawns its own on first use.  Either way the published
    scenario segments reach the workers as a :class:`WorkerContext`.
    :meth:`close` unlinks the segments and terminates the pool only if
    the executor spawned it.
    """

    def __init__(self, source, execution, pool: Optional[TaskPool] = None):
        super().__init__(source, execution)
        self._borrowed_pool = pool
        self._pool = pool
        self._context: Optional[WorkerContext] = None
        self._segments: List[shared_memory.SharedMemory] = []
        self._finalizer = None

    # ------------------------------------------------------------------
    # Pool / shared-memory lifecycle
    # ------------------------------------------------------------------
    def _spawn_pool(self, processes: int) -> TaskPool:
        """Create the worker pool (separate for spawn-count tests)."""
        return TaskPool(processes)

    def _publish(self, batches) -> _ScenarioSpec:
        """Copy an evaluator's scenario sets into two shared-memory
        segments: the ``durations`` array every set shares, and the
        sets' fault counts stacked in set order."""
        first = next(iter(batches.values()))
        shape = first.durations.shape
        segment = shared_memory.SharedMemory(
            create=True, size=first.durations.nbytes
        )
        self._segments.append(segment)
        _shared_array(segment, shape)[:] = first.durations
        counts_shape = (len(batches),) + shape[:2]
        counts_segment = shared_memory.SharedMemory(
            create=True, size=len(batches) * first.fault_counts.nbytes
        )
        self._segments.append(counts_segment)
        counts = _shared_array(counts_segment, counts_shape)
        for i, batch in enumerate(batches.values()):
            counts[i] = batch.fault_counts
        return (
            first.names, tuple(batches), segment.name, shape,
            counts_segment.name,
        )

    def _ensure_context(self, processes: int) -> None:
        """Publish the scenario sets and acquire the pool, once until
        the next :meth:`close`."""
        if self._context is not None:
            return
        spawned = None
        try:
            spec = self._publish(self._source().scenarios)
            if self._pool is None:
                self._pool = spawned = self._spawn_pool(processes)
        except BaseException:
            # Publish or spawn failed partway: unlink whatever was
            # created now, or it survives in /dev/shm until exit.
            _release(None, self._segments)
            self._segments = []
            raise
        self._context = WorkerContext.of(
            _EvaluationWorker, self.app, spec, self.execution.engine
        )
        self._finalizer = weakref.finalize(
            self, _release, spawned, list(self._segments)
        )

    def close(self) -> None:
        """Unlink the segments; terminate the pool if we spawned it.

        Workers of a borrowed pool drop their attachments when the next
        context arrives; the pool itself belongs to the resource
        manager.
        """
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._pool = self._borrowed_pool
        self._context = None
        self._segments = []

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Run all scenario sets against ``plan`` across the workers."""
        bounds = shard_bounds(self.n_scenarios, self.execution.workers)
        if len(bounds) == 1:
            return self._inline(plan)
        self._ensure_context(len(bounds))
        shards = self._pool.map(
            _simulate_slice,
            [(plan, lo, hi) for lo, hi in bounds],
            self._context,
        )
        return merge_shard_outcomes(self.fault_counts, shards)
