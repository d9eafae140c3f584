"""Content-addressed store of synthesized quasi-static trees.

FTQS construction is a pure function of (application, root f-schedule,
:class:`~repro.quasistatic.ftqs.FTQSConfig`) — both engines produce
identical trees for any job count, which the differential suite
asserts.  That makes trees perfect cache material: repeated experiment
runs (and repeated sweep points over the same application) can skip
the build entirely and reload the tree bit-identically from JSON
(round-trip fidelity is covered by ``tests/test_json_io.py``).

:class:`TreeStore` keys each tree by a SHA-256 **fingerprint** of the
canonical JSON forms of the application, the root schedule and the
config (:func:`repro.io.json_io.content_digest` of the dict forms;
canonical = sorted keys, compact separators), so any change to timing
constants, utility shapes, the fault hypothesis, the root schedule or
a config knob — including the embedded FTSS config — addresses a
different entry.

Where the bytes live is a pluggable
:class:`~repro.pipeline.store.base.StoreBackend` — the local
:class:`~repro.pipeline.store.filesystem.FilesystemBackend` directory,
a process-local :class:`~repro.pipeline.store.memory.MemoryBackend`
LRU, or a fleet-shared
:class:`~repro.pipeline.store.redis_backend.RedisBackend` — and every
backend honors the same contract: unreadable, corrupted or
error-raising entries are treated as counted misses and rebuilt over,
never allowed to poison a run.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from repro.errors import RuntimeModelError, SerializationError
from repro.io.json_io import (
    application_to_dict,
    content_digest,
    schedule_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.pipeline.store.base import StoreBackend, StoreMetrics
from repro.pipeline.store.filesystem import FilesystemBackend
from repro.pipeline.store.memory import MemoryBackend
from repro.quasistatic.ftqs import FTQSConfig
from repro.quasistatic.tree import QSTree
from repro.scheduling.fschedule import FSchedule


def fingerprint(app, root_schedule: FSchedule, config: FTQSConfig) -> str:
    """Stable content address of one synthesis problem.

    Built from the serialized forms — the same representations the
    store round-trips — so two applications that serialize identically
    (same processes, edges, period, k, µ, utilities) share cache
    entries regardless of object identity.
    """
    return content_digest(
        {
            "application": application_to_dict(app),
            "root": schedule_to_dict(root_schedule),
            "config": asdict(config),
        }
    )


def application_tag(app) -> str:
    """Short stable tag of one application (for group purges).

    Every tree of one application — any root schedule, any config —
    shares this tag, so retiring an application from a shared store is
    one :meth:`TreeStore.purge_application` call.
    """
    return content_digest(application_to_dict(app))[:16]


def open_backend(
    kind: str,
    *,
    cache_dir: Optional[str] = None,
    url: Optional[str] = None,
    capacity: Optional[int] = None,
    ttl_seconds: Optional[int] = None,
) -> StoreBackend:
    """Construct a backend from CLI-shaped knobs.

    ``fs`` needs ``cache_dir``; ``memory`` needs nothing; ``redis``
    takes ``url`` (default ``redis://localhost:6379/0``) and needs the
    ``redis`` package installed.  The redis backend comes wrapped in a
    :class:`~repro.pipeline.store.resilient.ResilientBackend`:
    transient transport errors retry with exponential backoff, and a
    persistently dead server trips a circuit breaker onto an in-memory
    fallback instead of degrading every operation over the wire.
    """
    if kind == "fs":
        if not cache_dir:
            raise RuntimeModelError(
                "the fs backend needs a cache directory (--cache-dir)"
            )
        return FilesystemBackend(cache_dir)
    if kind == "memory":
        return MemoryBackend(capacity=capacity)
    if kind == "redis":
        from repro.pipeline.store.redis_backend import (
            DEFAULT_URL,
            RedisBackend,
        )
        from repro.pipeline.store.resilient import ResilientBackend

        return ResilientBackend(
            RedisBackend(
                url or DEFAULT_URL,
                ttl_seconds=ttl_seconds,
                capacity=capacity,
            )
        )
    raise RuntimeModelError(
        f"unknown store backend {kind!r} (choose fs, memory or redis)"
    )


class TreeStore:
    """Fingerprint-addressed tree cache over a pluggable backend.

    Parameters
    ----------
    root:
        Shorthand for ``backend=FilesystemBackend(root)`` — the
        original single-backend constructor, kept working verbatim.
    backend:
        Any :class:`StoreBackend`.  Exactly one of ``root``/``backend``
        must be given.

    ``hits``/``misses`` mirror the backend's get classification as the
    experiment loop sees it: a corrupted or error-raising entry counts
    as a miss (and is silently rebuilt by the caller's subsequent
    :meth:`put`).  :attr:`metrics` exposes the full
    :class:`StoreMetrics` snapshot.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        *,
        backend: Optional[StoreBackend] = None,
    ):
        if (root is None) == (backend is None):
            raise RuntimeModelError(
                "TreeStore needs exactly one of root= or backend="
            )
        self.backend = (
            backend if backend is not None else FilesystemBackend(root)
        )
        # Kept for the original filesystem-store API surface.
        self.root = getattr(self.backend, "root", None)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        """Entry location for ``key`` (filesystem backends only)."""
        return self.backend.path_for(key)

    @staticmethod
    def fingerprint(
        app, root_schedule: FSchedule, config: FTQSConfig
    ) -> str:
        return fingerprint(app, root_schedule, config)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def metrics(self) -> StoreMetrics:
        """A snapshot of the backend's per-operation counters."""
        return self.backend.metrics.snapshot()

    @property
    def hits(self) -> int:
        return self.backend.metrics.hits

    @property
    def misses(self) -> int:
        return self.backend.metrics.misses

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(
        self, app, root_schedule: FSchedule, config: FTQSConfig
    ) -> Optional[QSTree]:
        """The cached tree, or ``None`` (missing/corrupted/erroring)."""
        key = fingerprint(app, root_schedule, config)
        payload = self.backend.get(key)
        if payload is None:
            return None
        try:
            data = json.loads(payload.decode("utf-8"))
            tree = tree_from_dict(app, data)
        except (
            SerializationError,
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ):
            # A torn or stale entry must never poison a run: fall back
            # to a fresh build (the put() that follows overwrites it).
            self.backend.metrics.note_corrupted()
            return None
        return tree

    def put(
        self, app, root_schedule: FSchedule, config: FTQSConfig, tree: QSTree
    ) -> Optional[str]:
        """Persist ``tree`` under its fingerprint; returns its location.

        A failed write (the backend raised one of its degradable
        transport errors — say the entry path was replaced by a
        directory, or the server connection tore) returns ``None``
        instead of propagating: the build already succeeded, so a
        cache that cannot persist must cost the run nothing but the
        missed reuse.  The failure stays visible under
        ``metrics.errors``.
        """
        key = fingerprint(app, root_schedule, config)
        payload = json.dumps(tree_to_dict(tree), sort_keys=True).encode(
            "utf-8"
        )
        try:
            return self.backend.put(
                key, payload, tags=(application_tag(app),)
            )
        except self.backend.degradable:
            return None

    def purge_application(self, app) -> int:
        """Drop every cached tree of ``app`` (tag-supporting backends)."""
        return self.backend.purge_tag(application_tag(app))

    def __len__(self) -> int:
        return len(self.backend)

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        self.backend.close()
