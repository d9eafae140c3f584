"""The experiment pipeline: one cached synthesis→simulation loop.

The pieces (see the module docstrings for the full story):

* :class:`~repro.pipeline.runner.ExperimentRunner` — the shared
  generate → synthesize → evaluate → rows loop all five experiment
  drivers are specs of;
* :class:`~repro.pipeline.store.TreeStore` — content-addressed cache
  of synthesized quasi-static trees over pluggable backends
  (filesystem / in-memory LRU / Redis; ``repro experiment
  --cache-backend``/``--cache-dir``), with per-operation
  :class:`~repro.pipeline.store.StoreMetrics` and a
  :class:`~repro.pipeline.store.ResilientBackend` retry/circuit-
  breaker wrapper around the networked backend;
* :class:`~repro.pipeline.resources.ResourceManager` — experiment-
  scoped ownership of the evaluation worker pools (one spawn per run
  instead of one per application) and of the run's optional tree
  store;
* :class:`~repro.pipeline.checkpoint.ExperimentCheckpoint` — the
  durable journal behind ``repro experiment --checkpoint/--resume``:
  a killed sweep resumes, skips finished evaluation units and emits
  byte-identical rows;
* :mod:`~repro.pipeline.chaos` — the deterministic fault-injection
  harness (``--chaos``) the recovery paths are tested under.
"""

from repro.pipeline.checkpoint import (
    ExperimentCheckpoint,
    JournalingEvaluator,
    checkpoint_fingerprint,
)
from repro.pipeline.resources import ResourceManager
from repro.pipeline.runner import ExperimentRunner, synthesize_tree
from repro.pipeline.store import (
    FilesystemBackend,
    MemoryBackend,
    RedisBackend,
    ResilientBackend,
    RetryPolicy,
    StoreBackend,
    StoreMetrics,
    TreeStore,
    fingerprint,
    open_backend,
)

__all__ = [
    "ExperimentCheckpoint",
    "ExperimentRunner",
    "FilesystemBackend",
    "JournalingEvaluator",
    "MemoryBackend",
    "RedisBackend",
    "ResilientBackend",
    "ResourceManager",
    "RetryPolicy",
    "StoreBackend",
    "StoreMetrics",
    "TreeStore",
    "checkpoint_fingerprint",
    "fingerprint",
    "open_backend",
    "synthesize_tree",
]
