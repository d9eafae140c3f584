"""Batched Monte-Carlo simulation engine.

The reference :class:`~repro.runtime.online.OnlineScheduler` replays
one :class:`~repro.faults.injection.ExecutionScenario` at a time
through a pure-Python event loop — correct, traceable, and far too
slow for the paper's 20,000-scenario evaluations.  This package keeps
that scheduler as the *behavioral oracle* and runs whole scenario
sets through one C core on top of it:

* :mod:`repro.runtime.engine.batch` — :class:`ScenarioBatch` holds the
  durations and fault patterns of a whole scenario set as NumPy arrays
  (:meth:`ScenarioBatch.draw` samples an evaluator's paired sets
  straight into them, on the per-scenario sampler's RNG stream) and
  builds the oracle's scenario objects on access;
* :mod:`repro.runtime.engine.simulator` — :class:`BatchResult`, the
  per-scenario outcome arrays (chains too), and
  :class:`BatchSimulator`, a plan with its oracle, whose per-scenario
  replay is the ``reference`` engine and the kernel's degradation and
  residual path;
* :mod:`repro.runtime.engine.kernel` — :class:`KernelSimulator`
  lowers the plan's tree into tables and runs whole batches through
  one prebuilt C core;
* :mod:`repro.runtime.engine.parallel` — :class:`ParallelEvaluator`
  shards an evaluator's scenario sets across a persistent pool of
  ``multiprocessing`` workers that attach the batch arrays via shared
  memory (shipped once per worker as a :class:`WorkerContext` of the
  general-purpose :class:`TaskPool`), and merges the shards' arrays;
* :mod:`repro.runtime.engine.threads` — :class:`ThreadedEvaluator`
  shards the same ranges across a thread pool against the C kernel
  core's GIL-releasing call (``ExecutionConfig`` mode
  ``"threads"``), merging with the same helper — multi-core scaling
  with no ``multiprocessing`` machinery at all.

The kernel is bit-identical to the oracle (asserted by
``tests/test_engine_differential.py``): utilities are accumulated in
the oracle's completion order with the same IEEE-754 operations, so
execution routing changes run time, never results.
"""

from repro.runtime.engine.batch import ScenarioBatch
from repro.runtime.engine.parallel import ParallelEvaluator
from repro.runtime.engine.simulator import BatchResult, BatchSimulator
from repro.runtime.engine.threads import ThreadedEvaluator

__all__ = [
    "BatchResult",
    "BatchSimulator",
    "ParallelEvaluator",
    "ScenarioBatch",
    "ThreadedEvaluator",
]
