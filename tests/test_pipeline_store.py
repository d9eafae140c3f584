"""The content-addressed tree store and the pipeline's synthesize path.

What the store guarantees — on **every** backend (filesystem,
in-memory LRU, Redis): identical (application, root, config) inputs
reload the identical tree (zero builds), different inputs get
different addresses, and a corrupted or error-raising entry degrades
to a counted miss — never a crash, never a wrong tree.  The
conformance suite below is parametrized over all three backends; the
Redis leg runs against ``fakeredis`` when installed and an in-repo
command-subset stub otherwise, plus (in nightly CI) a real server via
``REPRO_REDIS_URL``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import RuntimeModelError
from repro.evaluation.experiments.table1 import Table1Config, run_table1
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.pipeline import TreeStore, fingerprint, synthesize_tree
from repro.pipeline.store import (
    FilesystemBackend,
    MemoryBackend,
    RedisBackend,
    application_tag,
)
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.quasistatic.synthesis import SynthesisStats
from repro.scheduling.ftss import ftss
from fake_redis_client import FakeRedisClient
from test_json_io import assert_trees_identical

CONFIG = FTQSConfig(max_schedules=6)
BACKENDS = ("fs", "memory", "redis")


def _redis_client():
    """A fakeredis client when installed, the in-repo stub otherwise."""
    try:
        import fakeredis

        return fakeredis.FakeStrictRedis()
    except ImportError:
        from fake_redis_client import FakeRedisClient

        return FakeRedisClient()


def make_store(kind: str, tmp_path) -> TreeStore:
    if kind == "fs":
        return TreeStore(str(tmp_path / "cache"))
    if kind == "memory":
        return TreeStore(backend=MemoryBackend())
    return TreeStore(backend=RedisBackend(client=_redis_client()))


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    return make_store(request.param, tmp_path)


def _break_reads(store: TreeStore, key: str, monkeypatch) -> None:
    """Make the next get of ``key`` raise a backend read error.

    Exercises each backend's real degradation path where possible: the
    filesystem entry is replaced by a directory (``IsADirectoryError``,
    the class of ``OSError`` that used to abort whole runs), the stub
    Redis client injects a ``ConnectionError`` into its pipelined GET;
    backends without a natural fault hook get their raw ``_get``
    monkeypatched to raise ``PermissionError``.
    """
    backend = store.backend
    if isinstance(backend, FilesystemBackend):
        path = backend.path_for(key)
        if os.path.exists(path):
            os.unlink(path)
        os.makedirs(path)
        return
    client = getattr(backend, "client", None)
    if client is not None and hasattr(client, "fail_reads"):
        client.fail_reads = True
        return

    def raising_get(_key):
        raise PermissionError("injected read fault")

    monkeypatch.setattr(backend, "_get", raising_get)


class TestFingerprint:
    def test_stable_across_rebuilds(self, fig1_app):
        from repro.examples_support import paper_fig1_application

        root = ftss(fig1_app)
        twin_app = paper_fig1_application()
        twin_root = ftss(twin_app)
        # Value-identical inputs → same address, regardless of object
        # identity.
        assert fingerprint(fig1_app, root, CONFIG) == fingerprint(
            twin_app, twin_root, CONFIG
        )

    def test_sensitive_to_config(self, fig1_app):
        root = ftss(fig1_app)
        assert fingerprint(fig1_app, root, CONFIG) != fingerprint(
            fig1_app, root, FTQSConfig(max_schedules=7)
        )
        # The embedded FTSS config is part of the address too.
        from repro.scheduling.ftss import FTSSConfig

        ablated = FTQSConfig(
            max_schedules=6, ftss=FTSSConfig(drop_heuristic=False)
        )
        assert fingerprint(fig1_app, root, CONFIG) != fingerprint(
            fig1_app, root, ablated
        )

    def test_sensitive_to_application(self, fig1_app, fig8_app):
        root1 = ftss(fig1_app)
        root8 = ftss(fig8_app)
        assert fingerprint(fig1_app, root1, CONFIG) != fingerprint(
            fig8_app, root8, CONFIG
        )

    def test_application_tag_shared_across_configs(self, fig1_app, fig8_app):
        assert application_tag(fig1_app) == application_tag(fig1_app)
        assert application_tag(fig1_app) != application_tag(fig8_app)


class TestStoreConstruction:
    def test_exactly_one_of_root_or_backend(self, tmp_path):
        with pytest.raises(RuntimeModelError):
            TreeStore()
        with pytest.raises(RuntimeModelError):
            TreeStore(str(tmp_path), backend=MemoryBackend())


class TestBackendConformance:
    """The same contract on fs, memory and redis."""

    def test_miss_then_hit_round_trips_identically(self, store, fig1_app):
        root = ftss(fig1_app)
        assert store.get(fig1_app, root, CONFIG) is None
        assert (store.hits, store.misses) == (0, 1)
        tree = ftqs(fig1_app, root, CONFIG)
        store.put(fig1_app, root, CONFIG, tree)
        cached = store.get(fig1_app, root, CONFIG)
        assert cached is not None
        assert (store.hits, store.misses) == (1, 1)
        assert_trees_identical(tree, cached)

    def test_metrics_measure_traffic_and_latency(self, store, fig1_app):
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        store.put(fig1_app, root, CONFIG, tree)
        store.get(fig1_app, root, CONFIG)
        metrics = store.metrics
        assert metrics.puts == 1
        assert metrics.bytes_written > 0
        assert metrics.bytes_read == metrics.bytes_written
        assert metrics.get_seconds >= 0.0
        assert metrics.put_seconds >= 0.0
        assert metrics.gets == metrics.hits + metrics.misses == 1

    def test_corrupted_entry_falls_back_to_counted_miss(
        self, store, fig1_app
    ):
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        store.put(fig1_app, root, CONFIG, tree)
        key = fingerprint(fig1_app, root, CONFIG)
        store.backend.put(key, b'{"version": 1, "root": 0, "nodes": [{"torn')
        assert store.get(fig1_app, root, CONFIG) is None
        assert store.misses == 1
        assert store.metrics.corrupted == 1
        # A rebuild overwrites the torn entry and the store recovers.
        store.put(fig1_app, root, CONFIG, tree)
        recovered = store.get(fig1_app, root, CONFIG)
        assert recovered is not None
        assert_trees_identical(tree, recovered)

    def test_semantically_corrupt_entry_is_a_miss(self, store, fig1_app):
        """Valid JSON, invalid tree record — also degrades to a miss."""
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        store.put(fig1_app, root, CONFIG, tree)
        key = fingerprint(fig1_app, root, CONFIG)
        store.backend.put(
            key,
            json.dumps({"version": 1, "root": 0, "nodes": []}).encode(),
        )
        assert store.get(fig1_app, root, CONFIG) is None
        assert store.metrics.corrupted == 1

    def test_invalid_schedule_entry_is_rebuilt(self, store, fig1_app):
        """An entry that decodes into an invalid f-schedule (a hard
        process with the wrong re-execution cap) is a corrupted miss,
        and the pipeline rebuilds and overwrites it."""
        from repro.io.json_io import tree_to_dict
        from repro.pipeline.runner import synthesize_tree

        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        record = tree_to_dict(tree)
        for entry in record["nodes"][0]["schedule"]["entries"]:
            if entry["name"] == "P1":
                entry["reexecutions"] += 1
        key = fingerprint(fig1_app, root, CONFIG)
        store.backend.put(key, json.dumps(record).encode())
        stats = SynthesisStats()
        rebuilt = synthesize_tree(
            fig1_app, root, CONFIG, stats=stats, store=store
        )
        assert store.metrics.corrupted == 1
        assert (stats.store_hits, stats.store_misses) == (0, 1)
        assert stats.trees_built == 1
        assert_trees_identical(tree, rebuilt)
        cached = store.get(fig1_app, root, CONFIG)
        assert cached is not None
        assert_trees_identical(tree, cached)

    def test_read_error_degrades_to_counted_miss(
        self, store, fig1_app, monkeypatch
    ):
        """Regression: a PermissionError/IsADirectoryError/connection
        fault on a cache entry used to abort the whole experiment run;
        now it is a miss counted under ``errors``."""
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        store.put(fig1_app, root, CONFIG, tree)
        _break_reads(store, fingerprint(fig1_app, root, CONFIG), monkeypatch)
        assert store.get(fig1_app, root, CONFIG) is None
        metrics = store.metrics
        assert metrics.errors == 1
        assert metrics.misses == 1
        assert metrics.hits == 0

    def test_delete_and_keys(self, store, fig1_app):
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        key = fingerprint(fig1_app, root, CONFIG)
        assert store.backend.delete(key) is False
        store.put(fig1_app, root, CONFIG, tree)
        assert store.backend.keys() == [key]
        assert len(store) == 1
        assert store.backend.delete(key) is True
        assert len(store) == 0
        assert store.get(fig1_app, root, CONFIG) is None
        assert store.metrics.deletes == 1

    def test_purge_application_drops_all_its_trees(self, store, fig1_app):
        if isinstance(store.backend, FilesystemBackend):
            pytest.skip("the fs backend keeps no tag index")
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        store.put(fig1_app, root, CONFIG, tree)
        other = ftqs(fig1_app, root, FTQSConfig(max_schedules=4))
        store.put(fig1_app, root, FTQSConfig(max_schedules=4), other)
        assert len(store) == 2
        assert store.purge_application(fig1_app) == 2
        assert len(store) == 0

    def test_repeat_synthesize_is_all_hits_zero_builds(
        self, store, fig1_app
    ):
        root = ftss(fig1_app)
        first = SynthesisStats()
        tree = synthesize_tree(
            fig1_app, root, CONFIG, stats=first, store=store
        )
        assert (first.store_hits, first.store_misses) == (0, 1)
        assert first.trees_built == 1
        second = SynthesisStats()
        cached = synthesize_tree(
            fig1_app, root, CONFIG, stats=second, store=store
        )
        assert (second.store_hits, second.store_misses) == (1, 0)
        assert second.trees_built == 0  # zero FTQS builds on a hit
        assert_trees_identical(tree, cached)

    def test_cached_tree_evaluates_bit_identically(self, store, fig1_app):
        """Store-loaded trees replay scenarios bit-identically."""
        root = ftss(fig1_app)
        fresh = synthesize_tree(fig1_app, root, CONFIG, store=store)
        cached = synthesize_tree(fig1_app, root, CONFIG, store=store)
        with MonteCarloEvaluator(
            fig1_app,
            n_scenarios=40,
            fault_counts=[0, 1],
            seed=11,
            execution="kernel",
        ) as evaluator:
            results = evaluator.compare({"fresh": fresh, "cached": cached})
        for faults in (0, 1):
            assert (
                results["cached"][faults].utilities.tobytes()
                == results["fresh"][faults].utilities.tobytes()
            )
            assert (
                results["cached"][faults].mean_switches
                == results["fresh"][faults].mean_switches
            )


class TestFilesystemBackend:
    """The fs-specific robustness fixes, pinned as regressions."""

    @pytest.fixture
    def store(self, tmp_path):
        return make_store("fs", tmp_path)

    def test_entries_are_files_under_root(self, store, fig1_app):
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        path = store.put(fig1_app, root, CONFIG, tree)
        assert os.path.dirname(path) == store.root
        assert len(store) == 1
        # No temp files left behind by the atomic write.
        assert all(
            name.endswith(".json") for name in os.listdir(store.root)
        )

    def test_entry_replaced_by_directory_is_counted_miss(
        self, store, fig1_app
    ):
        """Regression (issue 6): an IsADirectoryError on open() used
        to propagate out of TreeStore.get and kill the run."""
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        path = store.put(fig1_app, root, CONFIG, tree)
        os.unlink(path)
        os.makedirs(path)
        assert store.get(fig1_app, root, CONFIG) is None
        assert store.metrics.errors == 1
        assert store.misses == 1

    def test_failed_overwrite_degrades_to_uncached_build(
        self, store, fig1_app
    ):
        """A put that cannot persist (entry squatted by a directory)
        returns None and counts an error — the run keeps its tree."""
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        path = store.put(fig1_app, root, CONFIG, tree)
        os.unlink(path)
        os.makedirs(path)
        assert store.put(fig1_app, root, CONFIG, tree) is None
        assert store.metrics.errors == 1
        # No temp droppings from the failed atomic replace.
        assert not any(
            name.endswith(".tmp") for name in os.listdir(store.root)
        )

    def test_stale_tmp_files_swept_on_open(self, tmp_path, fig1_app):
        """Regression (issue 6): temp files of a run killed between
        mkstemp and os.replace leaked into the cache dir forever."""
        first = make_store("fs", tmp_path)
        root = ftss(fig1_app)
        tree = ftqs(fig1_app, root, CONFIG)
        first.put(fig1_app, root, CONFIG, tree)
        stale = os.path.join(first.root, "tmpdead42.tmp")
        with open(stale, "w") as handle:
            handle.write('{"half": ')
        reopened = make_store("fs", tmp_path)
        assert reopened.backend.swept_temp_files == 1
        assert not os.path.exists(stale)
        assert len(reopened) == 1  # the real entry survived the sweep
        assert reopened.get(fig1_app, root, CONFIG) is not None

    def test_len_and_keys_never_count_tmp_files(self, store, fig1_app):
        stale = os.path.join(store.root, "tmplive1.tmp")
        with open(stale, "w") as handle:
            handle.write("{}")
        assert len(store) == 0
        assert store.backend.keys() == []


class TestMemoryBackend:
    def test_capacity_validated(self):
        with pytest.raises(RuntimeModelError):
            MemoryBackend(capacity=0)

    def test_lru_eviction_respects_recency(self):
        backend = MemoryBackend(capacity=2)
        backend.put("a", b"A")
        backend.put("b", b"B")
        assert backend.get("a") == b"A"  # touch: a is now most recent
        backend.put("c", b"C")
        assert backend.evictions == 1
        assert backend.get("b") is None  # b was least recently used
        assert backend.get("a") == b"A"
        assert backend.get("c") == b"C"
        assert len(backend) == 2

    def test_overwrite_does_not_grow_past_capacity(self):
        backend = MemoryBackend(capacity=2)
        backend.put("a", b"A")
        backend.put("a", b"A2")
        backend.put("b", b"B")
        assert backend.evictions == 0
        assert backend.get("a") == b"A2"

    def test_purge_tag(self):
        backend = MemoryBackend()
        backend.put("a", b"A", tags=("app1",))
        backend.put("b", b"B", tags=("app1",))
        backend.put("c", b"C", tags=("app2",))
        assert backend.purge_tag("app1") == 2
        assert backend.keys() == ["c"]
        assert backend.purge_tag("app1") == 0


class TestRedisBackend:
    """Redis semantics against fakeredis or the in-repo stub."""

    def test_requires_redis_package_without_client(self, monkeypatch):
        """Importable always; constructible without client= only when
        redis-py is installed."""
        from repro.pipeline.store import redis_backend as module

        monkeypatch.setattr(module, "_redis", None)
        with pytest.raises(RuntimeModelError, match="redis"):
            RedisBackend()

    def test_parameter_validation(self):
        with pytest.raises(RuntimeModelError):
            RedisBackend(client=_redis_client(), ttl_seconds=0)
        with pytest.raises(RuntimeModelError):
            RedisBackend(client=_redis_client(), capacity=0)

    def test_capacity_eviction_is_lru(self):
        backend = RedisBackend(client=_redis_client(), capacity=2)
        backend.put("a", b"A")
        backend.put("b", b"B")
        assert backend.get("a") == b"A"  # pipelined touch refreshes a
        backend.put("c", b"C")
        assert backend.evictions == 1
        assert backend.get("b") is None
        assert backend.get("a") == b"A"
        assert backend.get("c") == b"C"
        assert len(backend) == 2

    def test_ttl_expiry_reads_as_miss(self):
        client = _redis_client()
        backend = RedisBackend(client=client, ttl_seconds=60)
        backend.put("a", b"A")
        assert client.ttl(backend.data_key("a")) > 0
        if not hasattr(client, "advance"):
            pytest.skip("client has no manual clock (real fakeredis)")
        client.advance(61)
        assert backend.get("a") is None
        assert backend.metrics.misses == 1
        # The stale LRU index slot was dropped with the failed touch.
        assert client.zcard(backend.lru_key) == 0

    def test_namespaces_are_isolated(self):
        client = _redis_client()
        one = RedisBackend(client=client, namespace="repro:one")
        two = RedisBackend(client=client, namespace="repro:two")
        one.put("a", b"A")
        assert two.get("a") is None
        assert len(two) == 0
        assert len(one) == 1

    def test_purge_tag_pipelines_all_members(self):
        backend = RedisBackend(client=_redis_client())
        backend.put("a", b"A", tags=("app1",))
        backend.put("b", b"B", tags=("app1", "big"))
        backend.put("c", b"C", tags=("app2",))
        assert backend.purge_tag("app1") == 2
        assert backend.keys() == ["c"]
        assert backend.purge_tag("app1") == 0
        assert backend.metrics.deletes == 2

    def test_close_releases_client(self):
        client = _redis_client()
        backend = RedisBackend(client=client)
        backend.close()
        if hasattr(client, "closed"):
            assert client.closed

    def test_unreachable_server_names_url_and_suggests_fallback(self):
        """The construct-time ping failure is a clear startup error:
        it names the target URL and points at --cache-backend memory."""

        class DeadClient(FakeRedisClient):
            def ping(self):
                raise ConnectionError("connection refused")

        with pytest.raises(RuntimeModelError) as excinfo:
            RedisBackend("redis://db.example:6379/0", client=DeadClient())
        message = str(excinfo.value)
        assert "redis://db.example:6379/0" in message
        assert "is the server reachable" in message
        assert "--cache-backend memory" in message


class FlakyRedisClient(FakeRedisClient):
    """A client whose next ``fail_next`` reads raise ConnectionError —
    the *transient* failure shape (vs ``fail_reads``' permanent one)."""

    def __init__(self, fail_next: int = 0):
        super().__init__()
        self.fail_next = fail_next

    def get(self, key):
        if self.fail_next > 0:
            self.fail_next -= 1
            raise ConnectionError("injected transient fault")
        return super().get(key)


class TestResilientBackend:
    """The transient-failure leg of the conformance suite: retry with
    backoff then success, and circuit-breaker degradation onto the
    in-memory fallback — both visible on the metrics the CLI line
    reports."""

    def _wrap(self, client, **kwargs):
        from repro.pipeline.store import ResilientBackend, RetryPolicy

        kwargs.setdefault(
            "policy", RetryPolicy(base_delay=0.0, jitter=0.0)
        )
        kwargs.setdefault("sleep", lambda _seconds: None)
        return ResilientBackend(RedisBackend(client=client), **kwargs)

    def test_transient_fault_retries_then_succeeds(self):
        client = FlakyRedisClient(fail_next=1)
        backend = self._wrap(client)
        backend.put("a", b"A")
        assert backend.get("a") == b"A"
        metrics = backend.metrics
        assert metrics.retries == 1
        assert metrics.errors == 0
        assert metrics.hits == 1
        assert not backend.tripped

    def test_exhausted_retries_degrade_to_counted_error_miss(self):
        client = FlakyRedisClient(fail_next=3)  # the whole budget
        backend = self._wrap(client)
        backend.put("a", b"A")
        assert backend.get("a") is None
        metrics = backend.metrics
        assert metrics.retries == 2
        assert metrics.errors == 1
        assert metrics.misses == 1
        assert not backend.tripped
        # The fault was transient: the next get recovers on the wire.
        assert backend.get("a") == b"A"

    def test_breaker_trips_onto_memory_fallback(self):
        import warnings

        client = _redis_client()
        backend = self._wrap(client, breaker_threshold=4)
        backend.put("a", b"A")
        client.fail_reads = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert backend.get("a") is None  # failures 1-3: exhausted
            assert backend.get("a") is None  # failure 4: breaker opens
        assert backend.tripped
        assert any(
            "circuit breaker" in str(warning.message)
            for warning in caught
        )
        # Post-trip operations never touch the wire again — even after
        # the server 'recovers' — and repeats hit the fallback.
        client.fail_reads = False
        backend.put("b", b"B")
        assert backend.get("b") == b"B"
        assert backend.fallback.get("b") == b"B"
        assert client.get(backend.data_key("b")) is None  # not on wire
        assert backend.metrics.degraded >= 3

    def test_wrapped_store_keeps_conformance_and_counts_resilience(
        self, fig1_app
    ):
        """TreeStore over the wrapper still round-trips identically,
        and the retry/degradation counters surface on the synthesis
        summary line the CLI prints."""
        client = FlakyRedisClient(fail_next=1)
        store = TreeStore(backend=self._wrap(client))
        root = ftss(fig1_app)
        stats = SynthesisStats()
        tree = synthesize_tree(
            fig1_app, root, CONFIG, stats=stats, store=store
        )
        cached = synthesize_tree(
            fig1_app, root, CONFIG, stats=stats, store=store
        )
        assert_trees_identical(tree, cached)
        stats.absorb_store(store)
        line = stats.summary_line()
        assert "store[redis]" in line
        assert "1 retries" in line
        assert "degraded" not in line  # breaker never tripped


@pytest.mark.skipif(
    not os.environ.get("REPRO_REDIS_URL"),
    reason="no real redis server configured (set REPRO_REDIS_URL)",
)
class TestRealRedisServer:
    """The nightly leg: the same conformance against a live server."""

    @pytest.fixture
    def store(self):
        pytest.importorskip("redis")
        url = os.environ["REPRO_REDIS_URL"]
        try:
            backend = RedisBackend(url, namespace="repro:test:conformance")
        except Exception as exc:  # pragma: no cover - server down
            pytest.skip(f"redis server unreachable: {exc}")
        for key in backend.keys():
            backend.delete(key)
        yield TreeStore(backend=backend)
        backend.close()

    def test_round_trip_and_repeat_hits(self, store, fig1_app):
        root = ftss(fig1_app)
        first = SynthesisStats()
        tree = synthesize_tree(
            fig1_app, root, CONFIG, stats=first, store=store
        )
        second = SynthesisStats()
        cached = synthesize_tree(
            fig1_app, root, CONFIG, stats=second, store=store
        )
        assert second.trees_built == 0
        assert (second.store_hits, second.store_misses) == (1, 0)
        assert_trees_identical(tree, cached)


class TestDriverLevelCaching:
    """A repeated experiment run is a 100%-hit, zero-build run — on
    every backend."""

    CONFIG = Table1Config(
        tree_sizes=(1, 2, 4), n_apps=1, n_processes=12, n_scenarios=30,
        seed=3,
    )

    @pytest.fixture(params=BACKENDS)
    def store(self, request, tmp_path):
        return make_store(request.param, tmp_path)

    def test_second_table1_run_is_fully_cached(self, store):
        first = SynthesisStats()
        rows = run_table1(self.CONFIG, stats=first, store=store)
        assert first.trees_built > 0
        assert first.store_hits == 0
        assert first.store_misses == first.trees_built

        second = SynthesisStats()
        again = run_table1(self.CONFIG, stats=second, store=store)
        assert second.trees_built == 0  # zero FTQS builds
        assert second.store_misses == 0
        assert second.store_hits == first.store_misses  # 100% hits

        # Cached-tree evaluation is bit-identical: every reported cell
        # matches the fresh-build run exactly.
        for row, twin in zip(rows, again):
            assert twin.nodes == row.nodes
            assert twin.utility_percent == row.utility_percent
            assert twin.n_apps == row.n_apps
