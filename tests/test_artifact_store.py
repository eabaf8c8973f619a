"""The shared artifact store: per-artifact build locks, cost-informed
eviction, per-worker sessions over one store.

This is the concurrency backbone of ``repro serve``
(tests/test_server.py exercises it over HTTP; here it is pinned down
at the library layer where failures are easiest to localize).
"""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest

from repro import Connection, Database, parse_query
from repro.session import (
    ArtifactStore,
    CacheStats,
    CostAwareCache,
)

STAR = "Q(x, y, z, w) :- R(x, y), S(x, z), T(x, w)"
PATH = "Q(x, y, z) :- R(x, y), S(y, z)"


def path_database() -> Database:
    return Database(
        {"R": {(1, 2), (3, 2), (3, 4)}, "S": {(2, 7), (2, 9), (4, 1)}}
    )


class TestCostAwareCache:
    def test_expensive_artifact_survives_cheap_pressure(self):
        cache = CostAwareCache(2, CacheStats())
        cache.put("hard", "H", cost=Fraction(2))
        for index in range(3):
            cache.put(f"easy-{index}", index, cost=1)
        assert "hard" in cache  # ι=2 outlives a wave of ι=1 entries
        # A plain LRU would have evicted it on the second put.

    def test_expensive_artifact_ages_out_eventually(self):
        # GreedyDual, not pinning: the clock advances with every
        # eviction, so an unused expensive entry eventually loses to
        # fresh cheap ones instead of squatting forever.
        cache = CostAwareCache(2, CacheStats())
        cache.put("hard", "H", cost=Fraction(2))
        for index in range(8):
            cache.put(f"easy-{index}", index, cost=1)
        assert "hard" not in cache

    def test_uniform_costs_degenerate_to_lru(self):
        cache = CostAwareCache(2, CacheStats())
        cache.put("a", 1, cost=1)
        cache.put("b", 2, cost=1)
        assert cache.get("a") == 1  # refresh a's recency/credit
        cache.put("c", 3, cost=1)  # evicts b, the LRU entry
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_hit_renews_credit(self):
        cache = CostAwareCache(2, CacheStats())
        cache.put("a", 1, cost=1)
        cache.put("b", 2, cost=1)
        cache.put("c", 3, cost=1)  # evicts a, advances the clock
        assert cache.get("b") == 2  # renews b's credit at the new clock
        cache.put("d", 4, cost=1)  # now c is the victim, not hot b
        assert "b" in cache and "c" not in cache

    def test_stats_attribution_aggregate_and_extra(self):
        aggregate, mine = CacheStats(), CacheStats()
        cache = CostAwareCache(4, aggregate)
        cache.put("k", "v")
        assert cache.get("k", extra=mine) == "v"
        assert cache.get("absent", extra=mine) is None
        assert cache.get("k") == "v"  # no extra: aggregate only
        assert (aggregate.hits, aggregate.misses) == (2, 1)
        assert (mine.hits, mine.misses) == (1, 1)

    def test_peek_and_contains_touch_nothing(self):
        stats = CacheStats()
        cache = CostAwareCache(4, stats)
        cache.put("k", "v")
        assert cache.peek("k") == "v"
        assert "k" in cache
        assert cache.peek("absent") is None
        assert stats.hits == stats.misses == 0

    def test_zero_capacity_disables_caching(self):
        cache = CostAwareCache(0, CacheStats())
        cache.put("k", "v", cost=5)
        assert cache.peek("k") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CostAwareCache(-1, CacheStats())

    def test_clear_resets_clock(self):
        cache = CostAwareCache(1, CacheStats())
        cache.put("a", 1, cost=10)
        cache.put("b", 2, cost=1)  # eviction advances the clock
        cache.clear()
        assert len(cache) == 0
        assert cache._clock == 0


class TestArtifactStore:
    def test_database_encoded_once_across_sessions(self):
        store = ArtifactStore(path_database())
        sessions = [store.session() for _ in range(4)]
        for session in sessions:
            session.access(PATH, order=["x", "y", "z"])
        assert store.stats.database_encodes == 1
        assert store.stats.sessions == 4

    def test_mapping_database_converted(self):
        store = ArtifactStore({"R": {(1, 2)}})
        assert isinstance(store.database, Database)

    def test_racing_workers_build_once(self):
        store = ArtifactStore(path_database())
        built = []
        release = threading.Event()

        def builder():
            built.append(threading.get_ident())
            release.wait(timeout=10)
            return "artifact"

        results = []

        def worker():
            results.append(
                store.get_or_build("preprocessing", "k", builder)
            )

        threads = [
            threading.Thread(target=worker) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        while not built:  # let the first builder enter
            pass
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert results == ["artifact"] * 4
        assert len(built) == 1  # one build, three waiters
        assert store.stats.build_waits >= 1
        assert store.stats.artifact_builds == 1

    def test_distinct_keys_build_concurrently(self):
        """The acceptance property at the store layer: two artifacts
        under different keys proceed under different locks — with one
        global lock the rendezvous below would deadlock."""
        store = ArtifactStore(path_database())
        barrier = threading.Barrier(2, timeout=10)

        def builder(tag):
            def build():
                barrier.wait()  # both builders must be in flight
                return tag

            return build

        errors = []

        def worker(tag):
            try:
                store.get_or_build("forest", tag, builder(tag))
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(tag,))
            for tag in ("decomposition-a", "decomposition-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert not errors
        assert store.stats.build_concurrency_peak >= 2

    def test_clear_keeps_in_flight_build_locks(self):
        """clear() during a build must not mint a second lock for the
        same key: the racer waits for the in-flight builder instead of
        starting a duplicate build."""
        store = ArtifactStore(path_database())
        entered = threading.Event()
        release = threading.Event()
        builds = []

        def slow_builder():
            builds.append("slow")
            entered.set()
            release.wait(timeout=10)
            return "first"

        def fast_builder():
            builds.append("fast")  # must never run
            return "second"

        first = threading.Thread(
            target=store.get_or_build,
            args=("forest", "k", slow_builder),
        )
        first.start()
        assert entered.wait(timeout=10)
        store.clear()  # while the build is in flight
        racer_result = []
        racer = threading.Thread(
            target=lambda: racer_result.append(
                store.get_or_build("forest", "k", fast_builder)
            )
        )
        racer.start()
        release.set()
        first.join(timeout=10)
        racer.join(timeout=10)
        assert builds == ["slow"]  # exactly one build ran
        assert racer_result == ["first"]
        assert store.stats.build_waits == 1

    def test_pruned_lock_is_not_trusted(self):
        """A build lock acquired after being pruned from the registry
        is retaken, so two builders can never hold different locks for
        one key (regression for the prune race)."""
        store = ArtifactStore(path_database())
        store.LOCK_REGISTRY_LIMIT = 0  # prune on every _build_lock call
        results = [
            store.get_or_build("forest", "k", lambda: "v")
            for _ in range(3)
        ]
        assert results == ["v"] * 3
        assert store.stats.artifact_builds == 1

    def test_failed_build_does_not_poison_the_key(self):
        store = ArtifactStore(path_database())

        def failing():
            raise RuntimeError("transient")

        with pytest.raises(RuntimeError):
            store.get_or_build("access", "k", failing)
        assert (
            store.get_or_build("access", "k", lambda: "ok") == "ok"
        )

    def test_clear_drops_artifacts_keeps_counters_and_encoding(self):
        store = ArtifactStore(path_database())
        session = store.session()
        session.access(PATH, order=["x", "y", "z"])
        builds = store.stats.artifact_builds
        assert builds > 0
        store.clear()
        assert len(store.cache("preprocessing")) == 0
        assert store.stats.artifact_builds == builds
        assert store.stats.database_encodes == 1
        # And serving still works after the wipe.
        assert len(session.access(PATH, order=["x", "y", "z"])) == 5

    def test_shared_session_clear_leaves_siblings_warm(self):
        store = ArtifactStore(path_database())
        worker_a, worker_b = store.session(), store.session()
        worker_a.access(PATH, order=["x", "y", "z"])
        # A connection attached to a shared store (a server worker's)
        # must NOT wipe it: only the connect()-made owner clears.
        attached = Connection(worker_a)
        attached.clear_cache()
        attached.close()
        worker_b.access(PATH, order=["x", "y", "z"])
        assert worker_b.stats.bag_materializations == 0
        assert worker_b.stats.access.hits == 1

    def test_per_worker_counters_shared_artifacts(self):
        query = parse_query(STAR)
        database = Database(
            {
                "R": {(m, v) for m in range(2) for v in range(8)},
                "S": {(m, v) for m in range(2) for v in range(8)},
                "T": {(m, v) for m in range(2) for v in range(8)},
            }
        )
        store = ArtifactStore(database)
        cold, warm = store.session(), store.session()
        cold.access(query, order=["x", "y", "z", "w"])
        # A sibling order on the *other* worker: same decomposition,
        # zero new tuple work, and the reuse shows up in the warm
        # worker's own counters.
        warm.access(query, order=["x", "w", "z", "y"])
        assert cold.stats.bag_materializations == 4
        assert warm.stats.bag_materializations == 0
        assert warm.stats.preprocessing.hits == 1
        assert warm.stats.forest.hits == 1
        # The store aggregate saw both workers.
        assert store.stats.preprocessing.hits >= 1
        assert store.stats.preprocessing.misses >= 1

    def test_store_repr_and_session_stats_nest_store(self):
        store = ArtifactStore(path_database())
        session = store.session()
        session.access(PATH, order=["x", "y", "z"])
        assert "ArtifactStore" in repr(store)
        stats = session.cache_stats()
        assert stats["store"]["database_encodes"] == 1
        assert stats["store"]["artifact_builds"] >= 1
