"""Sharded Monte-Carlo evaluation across ``multiprocessing`` workers.

:class:`ParallelEvaluator` splits the scenario index range of a
Monte-Carlo evaluation into contiguous shards, one per job.  The
scenario sets are packed once into :class:`ScenarioBatch` arrays and
published to the workers through ``multiprocessing.shared_memory`` —
workers attach to the segments in their initializer and never copy or
re-derive the scenario data.  Shard boundaries select which slice a
worker simulates; per-scenario results are independent of the slicing,
so the merged :class:`~repro.evaluation.montecarlo.EvaluationOutcome`
per fault count is identical to a single-process run, for any job
count.

The pool is *persistent*: it is created lazily on the first
``evaluate()`` and reused across ``evaluate()``/``compare()`` calls
for the evaluator's lifetime (also reachable via ``with``), so
comparing many plans pays the fork/attach cost once.  Each worker
compiles a plan once per ``evaluate()`` call — the segment-stepped
``BatchSimulator`` core with its §2.2 decision tables and per-node
segment indexes — and reuses it across that plan's fault counts
(``tests/test_parallel_pool.py`` pins both the pool reuse and the
per-plan compile count).  Workers default to the batched engine but
honour ``engine="reference"`` for differential measurements and
``engine="kernel"`` for the C kernel core (the parent builds the core
and lowers the plan before fanning out, so workers load both from the
shared artifact cache instead of racing to build them).
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
from dataclasses import dataclass, replace
from multiprocessing import connection, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeModelError

#: Parent-side unique tokens for worker-context switching (see
#: :func:`_simulate_slice_ctx` and the synthesis counterpart).  A token
#: names one published evaluation context; workers re-initialize
#: themselves when they see a token they do not hold yet, which is what
#: makes a generic pool reusable across applications.
_CONTEXT_TOKENS = itertools.count(1)


def next_context_token() -> int:
    """A fresh parent-process-unique worker-context token."""
    return next(_CONTEXT_TOKENS)


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


def merge_shard_outcomes(
    fault_counts: Sequence[int], shards: Sequence[_ShardRaw]
) -> Dict[int, "EvaluationOutcome"]:
    """Merge per-shard raw results in shard (= scenario range) order.

    Per-scenario results are independent of the slicing, so merging the
    shards of :func:`shard_bounds` reproduces a single in-process run
    bit for bit, for any shard count.  Shared by the process and the
    thread executors.
    """
    from repro.evaluation.montecarlo import EvaluationOutcome

    outcomes: Dict[int, EvaluationOutcome] = {}
    for faults in fault_counts:
        utilities: List[float] = []
        misses = switches = observed = fallbacks = 0
        for shard in shards:
            (
                shard_utilities,
                shard_misses,
                shard_switches,
                shard_observed,
                shard_fallbacks,
            ) = shard[faults]
            utilities.extend(shard_utilities)
            misses += shard_misses
            switches += shard_switches
            observed += shard_observed
            fallbacks += shard_fallbacks
        outcomes[faults] = EvaluationOutcome.aggregate(
            utilities, misses, switches, observed, fallbacks
        )
    return outcomes

#: One shard's raw result per fault count: (utilities, misses, total
#: switches, total observed faults, oracle fallbacks).
_ShardRaw = Dict[int, Tuple[List[float], int, int, int, int]]

#: (shm name of durations, durations shape, shm name of fault counts)
_BatchSpec = Tuple[str, Tuple[int, int, int], str]

#: Worker-process state installed by :func:`_worker_init`.
_WORKER: Optional[Dict] = None


def _attach_batches(
    names: Tuple[str, ...], specs: Dict[int, _BatchSpec]
) -> Tuple[Dict[int, "ScenarioBatch"], List[shared_memory.SharedMemory]]:
    """Attach the published scenario arrays (no copies)."""
    from repro.runtime.engine.batch import ScenarioBatch

    batches: Dict[int, ScenarioBatch] = {}
    segments: List[shared_memory.SharedMemory] = []
    for faults, (durations_name, shape, fault_name) in specs.items():
        durations_shm = shared_memory.SharedMemory(name=durations_name)
        fault_shm = shared_memory.SharedMemory(name=fault_name)
        segments += [durations_shm, fault_shm]
        durations = np.ndarray(shape, dtype=np.int64, buffer=durations_shm.buf)
        fault_counts = np.ndarray(
            shape[:2], dtype=np.int64, buffer=fault_shm.buf
        )
        batches[faults] = ScenarioBatch(names, durations, fault_counts)
    return batches, segments


def _worker_init(app, names, specs, engine) -> None:
    """Pool initializer: attach shared batches, prime per-plan caches."""
    global _WORKER
    batches, segments = _attach_batches(tuple(names), specs)
    _WORKER = {
        "app": app,
        "engine": engine,
        "batches": batches,
        "segments": segments,  # keep attached for the worker's lifetime
        "plan_key": None,
        "simulator": None,
    }


def _simulate_slice(task) -> _ShardRaw:
    """Worker entry point: simulate scenarios ``[lo, hi)`` of each set.

    ``plan_key`` identifies the plan across a fan-out: the compiled
    ``BatchSimulator`` (decision tables included) is built on first
    sight and reused for every fault count of the same plan.
    """
    plan_key, plan, lo, hi = task
    state = _WORKER
    app = state["app"]
    out: _ShardRaw = {}
    if state["engine"] in ("batched", "kernel"):
        from repro.runtime.engine.batch import ScenarioBatch
        from repro.runtime.engine.simulator import BatchSimulator

        if state["plan_key"] != plan_key:
            if state["engine"] == "kernel":
                # The parent warmed the core and this plan's tables
                # before fanning out, so this is normally a load.
                from repro.runtime.engine.kernel import KernelSimulator

                state["simulator"] = KernelSimulator(app, plan)
            else:
                state["simulator"] = BatchSimulator(app, plan)
            state["plan_key"] = plan_key
        simulator = state["simulator"]
        for faults, batch in state["batches"].items():
            piece = ScenarioBatch(
                batch.names,
                batch.durations[lo:hi],
                batch.fault_counts[lo:hi],
            )
            result = simulator.run_batch(piece)
            out[faults] = (
                [float(u) for u in result.utilities],
                int(result.deadline_miss.sum()),
                int(result.switch_counts.sum()),
                int(result.faults_observed.sum()),
                result.n_fallback,
            )
    else:
        from repro.evaluation.montecarlo import MonteCarloEvaluator
        from repro.runtime.online import OnlineScheduler

        scheduler = OnlineScheduler(app, plan, record_events=False)
        for faults, batch in state["batches"].items():
            out[faults] = MonteCarloEvaluator._reference_raw(
                scheduler, [batch.scenario(i) for i in range(lo, hi)]
            )
    return out


#: Worker-process state for *contextual* tasks (shared generic pools).
#: Holds only the most recent context: experiment sweeps move from one
#: application to the next, never back.
_CTX_WORKER: Optional[Dict] = None


def _simulate_slice_ctx(task):
    """Worker entry point for tasks carrying their own context.

    ``task`` is ``(context, inner)`` where ``context`` is
    ``(token, app, names, specs, engine)`` and ``inner`` is the
    ``(plan_key, plan, lo, hi)`` tuple of :func:`_simulate_slice`.  A
    worker of a *generic* pool (spawned once per experiment run, no
    initializer) installs the context on first sight of its token —
    attaching the published shared-memory batches, no copies — and
    reuses it for every later task with the same token.  A new token
    replaces the previous context, closing its segment attachments, so
    one pool serves any number of applications in sequence.
    """
    global _WORKER, _CTX_WORKER
    context, inner = task
    token, app, names, specs, engine = context
    state = _CTX_WORKER
    if state is None or state["token"] != token:
        if state is not None:
            for segment in state["segments"]:
                segment.close()
        batches, segments = _attach_batches(tuple(names), specs)
        state = {
            "token": token,
            "app": app,
            "engine": engine,
            "batches": batches,
            "segments": segments,
            "plan_key": None,
            "simulator": None,
        }
        _CTX_WORKER = state
    # _simulate_slice reads the module global; point it at the current
    # context so both task forms share one execution path.
    _WORKER = state
    return _simulate_slice(inner)


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
    (``jobs=N`` → ``jobs=1`` with a warning, never an abort).
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

    def snapshot(self) -> "PoolRecovery":
        return replace(self)

    def merge(self, other: "PoolRecovery") -> None:
        self.worker_deaths += other.worker_deaths
        self.timeouts += other.timeouts
        self.respawns += other.respawns
        self.task_retries += other.task_retries
        self.degraded_tasks += other.degraded_tasks
        self.pool_degradations += other.pool_degradations

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


def _pool_worker_main(task_r, result_w, initializer, initargs) -> None:
    """Worker process body: init once, then a recv→run→send loop.

    Messages are ``(gen, seq, fn, task, chaos_action)``; replies are
    ``(gen, seq, ok, result_or_exception)``.  ``gen`` identifies the
    :meth:`TaskPool.map` call, so the parent can discard results of an
    aborted map instead of mistaking them for the current one's.
    """
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            item = task_r.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        gen, seq, fn, task, action = item
        if action is not None:
            _apply_chaos_action(action)
        try:
            payload = (gen, seq, True, fn(task))
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

    __slots__ = ("process", "task_w", "result_r", "current")

    def __init__(self, process, task_w, result_r):
        self.process = process
        self.task_w = task_w
        self.result_r = result_r
        #: (gen, seq, dispatched_at) of the in-flight task, or None.
        self.current: Optional[Tuple[int, int, float]] = None


#: Parent poll interval while waiting on results/sentinels.
_POLL_SECONDS = 0.05


class TaskPool:
    """Small task-sharding facade over a persistent worker pool.

    Generalizes the scenario-sharding pool of :class:`ParallelEvaluator`
    to arbitrary picklable tasks: workers are spawned once (running
    ``initializer(*initargs)`` to install whatever per-process context
    the task function needs) and reused for every :meth:`map` call.
    ``map`` preserves task order, so a caller that merges results
    positionally is deterministic for any worker count.  Users:

    * :class:`ParallelEvaluator` — scenario-slice tasks over shared
      scenario batches;
    * :class:`repro.quasistatic.synthesis.SynthesisEngine` — FTQS
      candidate-evaluation tasks of one expansion layer.

    A pool spawned with *no* initializer is a **generic** pool: its
    workers carry no application state and are (re-)initialized by the
    tasks themselves (contextual tasks, see
    :func:`_simulate_slice_ctx`).  That is how
    :class:`repro.pipeline.resources.ResourceManager` shares one pool
    across every application of an experiment run instead of paying a
    spawn per application.

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
        initializer=None,
        initargs=(),
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
        # workers.  A generic pool is often spawned before the first
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
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._inline_ready = initializer is None
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
            args=(task_r, result_w, self._initializer, self._initargs),
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

    def _run_inline(self, fn, task):
        """In-process degraded execution (bit-identical by purity)."""
        if not self._inline_ready:
            self._initializer(*self._initargs)
            self._inline_ready = True
        return fn(task)

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
    def map(self, fn, tasks):
        """Run ``fn`` over ``tasks``; results in task order.

        Worker crashes, injected chaos kills and task timeouts are
        recovered internally (see the class docstring); the only
        exceptions that propagate are the task function's own.
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
                results[seq] = self._run_inline(fn, tasks[seq])
                done[seq] = True
                remaining -= 1
            if not remaining:
                break
            self._dispatch(fn, tasks, gen, pending, done, attempts, plan)
            remaining -= self._collect(gen, results, done)
            self._reap(gen, pending, inline, done, attempts)
        return results

    def _dispatch(self, fn, tasks, gen, pending, done, attempts, plan):
        """Hand pending tasks to idle live workers."""
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
            try:
                worker.task_w.send((gen, seq, fn, tasks[seq], action))
            except (BrokenPipeError, OSError):
                # Died since the last reap; the next reap respawns it.
                pending.appendleft(seq)
                continue
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
        self._closed = True

    def close(self) -> None:
        """Terminate the workers (idempotent, safe after crashes)."""
        self.terminate()
        self.join()

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelEvaluator:
    """Deterministic sharded version of the Monte-Carlo evaluation.

    Parameters mirror :class:`MonteCarloEvaluator`, plus ``jobs`` (the
    worker count), ``engine`` (which simulator each worker runs) and
    ``source`` (an optional :class:`MonteCarloEvaluator` whose packed
    scenario batches are shared instead of re-derived).  ``evaluate``
    returns the same ``{fault count: EvaluationOutcome}`` mapping a
    single-process evaluator produces.

    ``pool`` may be a *borrowed* generic :class:`TaskPool` (owned by a
    :class:`repro.pipeline.resources.ResourceManager`): the evaluator
    then publishes its scenario segments as a worker context and ships
    context-carrying tasks instead of spawning its own pool;
    :meth:`close` releases the segments but leaves the pool running for
    the next application.
    """

    def __init__(
        self,
        app,
        n_scenarios: int = 200,
        fault_counts: Optional[Sequence[int]] = None,
        seed: int = 1,
        engine: str = "batched",
        jobs: int = 2,
        source=None,
        pool: Optional[TaskPool] = None,
        execution=None,
    ):
        from repro.execution import ExecutionConfig

        if execution is not None:
            execution = ExecutionConfig.coerce(execution)
            engine = execution.engine
            jobs = execution.workers
        if jobs < 1:
            raise RuntimeModelError(f"jobs must be positive, got {jobs}")
        self.app = app
        self.n_scenarios = n_scenarios
        self.fault_counts = (
            list(fault_counts)
            if fault_counts is not None
            else list(range(app.k + 1))
        )
        self.seed = seed
        self.engine = engine
        self.jobs = jobs
        self.execution = execution or ExecutionConfig(
            engine=engine,
            mode="inline" if jobs == 1 else "processes",
            workers=jobs,
        )
        # A provided source (the owning MonteCarloEvaluator) is held
        # weakly: it owns *us*, and a strong back-reference would form
        # a cycle that delays pool/segment release until a cyclic GC
        # pass instead of freeing promptly by refcount.
        self._source_ref = weakref.ref(source) if source is not None else None
        self._own_source = None
        self._pool = None
        self._borrowed_pool = pool
        self._context = None
        self._segments: List[shared_memory.SharedMemory] = []
        self._plan_counter = 0
        self._plan_keys: Dict[int, Tuple[object, int]] = {}
        self._finalizer = None

    # ------------------------------------------------------------------
    # Pool / shared-memory lifecycle
    # ------------------------------------------------------------------
    def _source(self) -> "MonteCarloEvaluator":
        """The evaluator supplying scenario sets (derived if absent)."""
        if self._source_ref is not None:
            source = self._source_ref()
            if source is not None:
                return source
        if self._own_source is None:
            from repro.evaluation.montecarlo import MonteCarloEvaluator

            self._own_source = MonteCarloEvaluator(
                self.app,
                n_scenarios=self.n_scenarios,
                fault_counts=self.fault_counts,
                seed=self.seed,
            )
        return self._own_source

    def _batches(self) -> Dict[int, "ScenarioBatch"]:
        """Packed scenario sets, from the source (cached there)."""
        source = self._source()
        return {f: source._batch_for(f) for f in self.fault_counts}

    def _spawn_pool(self, processes: int, names, specs):
        """Create the worker pool (separate for spawn-count tests)."""
        return TaskPool(
            processes,
            initializer=_worker_init,
            initargs=(self.app, names, specs, self.engine),
        )

    def _publish(self, batches) -> Tuple[Tuple[str, ...], Dict[int, _BatchSpec]]:
        """Copy the batch arrays into shared-memory segments."""
        specs: Dict[int, _BatchSpec] = {}
        names: Tuple[str, ...] = ()
        for faults, batch in batches.items():
            names = batch.names
            durations = np.ascontiguousarray(batch.durations, dtype=np.int64)
            fault_counts = np.ascontiguousarray(
                batch.fault_counts, dtype=np.int64
            )
            durations_shm = shared_memory.SharedMemory(
                create=True, size=durations.nbytes
            )
            fault_shm = shared_memory.SharedMemory(
                create=True, size=fault_counts.nbytes
            )
            np.ndarray(
                durations.shape, dtype=np.int64, buffer=durations_shm.buf
            )[:] = durations
            np.ndarray(
                fault_counts.shape, dtype=np.int64, buffer=fault_shm.buf
            )[:] = fault_counts
            self._segments += [durations_shm, fault_shm]
            specs[faults] = (durations_shm.name, durations.shape, fault_shm.name)
        return names, specs

    def _ensure_pool(self, processes: int) -> None:
        if self._borrowed_pool is not None:
            if self._context is None:
                try:
                    names, specs = self._publish(self._batches())
                except BaseException:
                    _release(None, self._segments)
                    self._segments = []
                    raise
                self._context = (
                    next_context_token(),
                    self.app,
                    names,
                    specs,
                    self.engine,
                )
                # The borrowed pool outlives us; only the segments need
                # a safety net.
                self._finalizer = weakref.finalize(
                    self, _release, None, list(self._segments)
                )
            return
        if self._pool is not None:
            return
        try:
            names, specs = self._publish(self._batches())
            self._pool = self._spawn_pool(processes, names, specs)
        except BaseException:
            # Publish or spawn failed partway: unlink whatever was
            # created now, or it survives in /dev/shm until exit.
            _release(self._pool, self._segments)
            self._pool = None
            self._segments = []
            raise
        self._finalizer = weakref.finalize(
            self, _release, self._pool, list(self._segments)
        )

    def close(self) -> None:
        """Release the segments; terminate the pool if it is ours.

        With a borrowed pool only the published scenario segments are
        unlinked (workers drop their attachments when the next context
        arrives); the pool itself belongs to the resource manager.
        """
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        elif self._segments:  # published but never pooled
            _release(self._pool, self._segments)
        self._pool = None
        self._context = None
        self._segments = []
        self._plan_keys.clear()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _plan_key(self, plan) -> int:
        """A stable identity for ``plan``, so re-evaluating the same
        plan object reuses the workers' compiled simulators.

        The plan is held strongly alongside its key: ``id()`` alone
        could be recycled after a plan is garbage-collected.
        """
        entry = self._plan_keys.get(id(plan))
        if entry is None or entry[0] is not plan:
            self._plan_counter += 1
            entry = (plan, self._plan_counter)
            self._plan_keys[id(plan)] = entry
        return entry[1]

    def _shard_bounds(self) -> List[Tuple[int, int]]:
        """Contiguous, near-equal scenario ranges, one per shard."""
        return shard_bounds(self.n_scenarios, self.jobs)

    def evaluate(self, plan) -> Dict[int, "EvaluationOutcome"]:
        """Run all scenario sets against ``plan`` across the workers."""
        from repro.execution import ExecutionConfig

        bounds = self._shard_bounds()
        if len(bounds) == 1:
            # One shard: simulate in-process over the cached packed
            # batches — no pool, no re-packing.
            return self._source().evaluate(
                plan, execution=ExecutionConfig(engine=self.engine)
            )
        plan_key = self._plan_key(plan)
        tasks = [(plan_key, plan, lo, hi) for lo, hi in bounds]
        self._ensure_pool(len(tasks))
        if self._borrowed_pool is not None:
            shards = self._borrowed_pool.map(
                _simulate_slice_ctx,
                [(self._context, task) for task in tasks],
            )
        else:
            shards = self._pool.map(_simulate_slice, tasks)
        return merge_shard_outcomes(self.fault_counts, shards)

    def compare(self, plans) -> Dict[str, Dict[int, "EvaluationOutcome"]]:
        """Evaluate several named plans over one persistent pool."""
        return {name: self.evaluate(plan) for name, plan in plans.items()}
