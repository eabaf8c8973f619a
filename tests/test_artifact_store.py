"""The artifact store: per-artifact build locks, cost-informed
eviction, and the threading law of one store served by many threads.

This is the concurrency backbone of ``repro serve``
(tests/test_server.py exercises it over HTTP; here it is pinned down
at the library layer where failures are easiest to localize).
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction

import pytest

from repro import Connection, Database, parse_query
from repro.session import (
    ArtifactStore,
    CacheStats,
    CostAwareCache,
)
from tests.conftest import lex_answers

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

    def test_get_counts_hits_and_misses(self):
        stats = CacheStats()
        cache = CostAwareCache(4, stats)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("absent") is None
        assert cache.get("k") == "v"
        assert (stats.hits, stats.misses) == (2, 1)

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
        store.access(PATH, order=["x", "y", "z"])
        builds = store.stats.artifact_builds
        assert builds > 0
        store.clear()
        assert len(store.cache("preprocessing")) == 0
        assert store.stats.artifact_builds == builds
        assert store.stats.database_encodes == 1
        # And serving still works after the wipe.
        assert len(store.access(PATH, order=["x", "y", "z"])) == 5

    def test_connection_clears_the_store_it_wraps(self):
        """A connection owns its store, however it was built:
        ``clear_cache`` and ``close`` empty it."""
        store = ArtifactStore(path_database())
        conn = Connection(store)
        conn.prepare(PATH, order=["x", "y", "z"])
        cold = conn.stats()["bag_materializations"]
        assert cold > 0
        conn.clear_cache()
        conn.prepare(PATH, order=["x", "y", "z"])
        assert conn.stats()["bag_materializations"] == 2 * cold
        conn.close()
        assert len(store.cache("preprocessing")) == 0

    def test_store_repr_and_session_stats_nest_store(self):
        store = ArtifactStore(path_database())
        conn = Connection(store)
        conn.prepare(PATH, order=["x", "y", "z"])
        assert "ArtifactStore" in repr(store)
        stats = conn.stats()
        assert stats["store"] == store.cache_stats()
        assert stats["store"]["database_encodes"] == 1
        assert stats["store"]["artifact_builds"] >= 1


class TestThreadingLaw:
    """One store, one connection, many threads: every counter is exact."""

    THREADS = 8
    ROUNDS = 8
    # Sibling orders of STAR: one decomposition, four access structures.
    ORDERS = (
        ("x", "y", "z", "w"),
        ("x", "w", "z", "y"),
        ("x", "z", "y", "w"),
        ("x", "z", "w", "y"),
    )

    @staticmethod
    def star_database() -> Database:
        rows = {(m, v) for m in range(3) for v in range(6)}
        return Database({"R": rows, "S": rows, "T": rows})

    def test_counters_are_exact_under_concurrency(self):
        database = self.star_database()
        query = parse_query(STAR)
        oracle = {
            order: lex_answers(query, database, order)
            for order in self.ORDERS
        }
        conn = Connection(ArtifactStore(database, capacity=None))
        # One warm order before the race; the others start cold.
        conn.prepare(STAR, order=self.ORDERS[0])
        barrier = threading.Barrier(self.THREADS, timeout=10)
        served: list[tuple] = []
        errors: list[BaseException] = []

        def worker(index):
            try:
                barrier.wait()
                for round_ in range(self.ROUNDS):
                    # Even threads keep reading the warm order; odd
                    # threads walk the cold siblings.
                    order = self.ORDERS[
                        0 if index % 2 == 0
                        else (index + round_) % len(self.ORDERS)
                    ]
                    view = conn.prepare(STAR, order=order)
                    served.append((order, list(view)))
                    view.close()
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        # A short switch interval makes a lost counter update likely
        # if any increment ran outside the registry lock.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        calls = 1 + self.THREADS * self.ROUNDS
        assert len(served) == calls - 1
        for order, answers in served:
            assert answers == oracle[order], order
        stats = conn.stats()
        store = stats["store"]
        assert stats["requests"] == calls
        assert (
            stats["access"]["hits"] + stats["access"]["misses"]
            == stats["requests"]
        )
        assert store["database_encodes"] == 1
        # One decomposition and one access structure per order; the
        # bag tables and the counting forest are shared by all four.
        assert store["artifact_builds"] == 2 * len(self.ORDERS) + 2
        assert stats["bag_materializations"] == 4
