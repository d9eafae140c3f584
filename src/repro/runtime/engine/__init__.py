"""Batched Monte-Carlo simulation engine.

The reference :class:`~repro.runtime.online.OnlineScheduler` replays
one :class:`~repro.faults.injection.ExecutionScenario` at a time
through a pure-Python event loop — correct, traceable, and far too
slow for the paper's 20,000-scenario evaluations.  This package keeps
that scheduler as the *behavioral oracle* and adds a batched engine on
top of it:

* :mod:`repro.runtime.engine.batch` — :class:`ScenarioBatch` packs the
  durations and fault patterns of a whole scenario set into NumPy
  arrays (and :meth:`ScenarioSampler.sample_batch` draws one directly,
  byte-identical to the per-scenario sampler);
* :mod:`repro.runtime.engine.compile` — a :class:`QSTree` or
  :class:`FSchedule` is compiled into integer-indexed process tables
  and per-node arc tables;
* :mod:`repro.runtime.engine.decisions` — :class:`DecisionTables`
  compiles the §2.2 drop/re-execute decision into integer
  schedulability thresholds and piecewise-constant benefit tables of
  the clock;
* :mod:`repro.runtime.engine.simulator` — :class:`BatchSimulator`
  executes the compiled plan over whole batches through one
  *segment-stepped* cohort core: between decision points (positions
  where a scheduled soft process is faulted) a cohort advances a whole
  run of positions in one closed-form vectorized step, at decision
  points it consults the compiled tables and splits; no-soft-fault
  scenarios are the zero-decision-point special case, and the oracle
  fallback remains only for plans outside the fast path's state
  model;
* :mod:`repro.runtime.engine.parallel` — :class:`ParallelEvaluator`
  shards scenario sets across a persistent pool of
  ``multiprocessing`` workers that attach the batch arrays via shared
  memory, and merges the outcomes;
* :mod:`repro.runtime.engine.threads` — :class:`ThreadedEvaluator`
  shards the same ranges across a thread pool against the C kernel
  core's GIL-releasing call (``ExecutionConfig`` mode
  ``"threads"``), merging with the same helper — multi-core scaling
  with no ``multiprocessing`` machinery at all.

Every fast path is bit-identical to the oracle (asserted by
``tests/test_engine_differential.py``): utilities are accumulated in
the oracle's completion order with the same IEEE-754 operations, so
execution routing changes run time, never results.
"""

from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.compile import (
    CompiledApplication,
    CompiledNode,
    CompiledTree,
    compile_application,
    compile_tree,
)
from repro.runtime.engine.decisions import DecisionTables
from repro.runtime.engine.parallel import ParallelEvaluator
from repro.runtime.engine.simulator import BatchResult, BatchSimulator
from repro.runtime.engine.threads import ThreadedEvaluator

__all__ = [
    "BatchResult",
    "BatchSimulator",
    "CompiledApplication",
    "CompiledNode",
    "CompiledTree",
    "DecisionTables",
    "ParallelEvaluator",
    "ScenarioBatch",
    "ThreadedEvaluator",
    "compile_application",
    "compile_tree",
]
