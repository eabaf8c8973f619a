"""Tests for the serving layer: ArtifactStore, caches, shared encoding."""

from __future__ import annotations

import random

import pytest

from repro import (
    Database,
    EncodedDatabase,
    Relation,
    VariableOrder,
    connect,
    parse_query,
    use_engine,
)
from repro.core import tasks
from repro.core.access import DirectAccess
from repro.core.decomposition import DisruptionFreeDecomposition
from repro.data.columnar import numpy_available
from repro.engine import available_engines
from repro.errors import OrderError
from repro.session.protocol import SessionRequest, execute
from repro.session.artifacts import ArtifactStore
from tests.conftest import (
    lex_answers,
    random_database_for,
    random_join_query,
)

STAR = "Q(x, y, z, w) :- R(x, y), S(x, z), T(x, w)"


def star_database(seed=0, rows=40, domain=6) -> Database:
    rng = random.Random(seed)
    return random_database_for(
        parse_query(STAR), rng, rows=rows, domain=domain
    )


def enumerate_all(access) -> list[tuple]:
    return [access.tuple_at(i) for i in range(len(access))]


class TestCrossOrderSharing:
    """Orders inducing one decomposition share one preprocessing pass."""

    @pytest.mark.parametrize("engine", available_engines())
    def test_sibling_order_hits_cache(self, engine):
        query = parse_query(STAR)
        store = ArtifactStore(star_database(), engine=engine)
        first = store.access(query, order=["x", "y", "z", "w"])
        cold_materializations = store.stats.bag_materializations
        cold_builds = store.stats.forest_builds
        assert cold_materializations == 4  # one table per bag

        # A different order, same decomposition: zero new tuple work.
        second = store.access(query, order=["x", "w", "z", "y"])
        assert store.stats.bag_materializations == cold_materializations
        assert store.stats.forest_builds == cold_builds
        assert store.stats.preprocessing.hits == 1
        assert store.stats.forest.hits == 1

        # ... and the cached structures answer bit-identically to a
        # cold, store-free DirectAccess for that order.
        with use_engine(engine):
            cold = DirectAccess(
                query,
                VariableOrder(["x", "w", "z", "y"]),
                store.database,
            )
        assert len(second) == len(cold) == len(first)
        assert enumerate_all(second) == enumerate_all(cold)

    @pytest.mark.parametrize("engine", available_engines())
    def test_exact_repeat_returns_cached_structure(self, engine):
        query = parse_query(STAR)
        store = ArtifactStore(star_database(), engine=engine)
        first = store.access(query, order=["x", "y", "z", "w"])
        again = store.access(query, order=["x", "y", "z", "w"])
        assert again is first
        assert store.stats.access.hits == 1

    def test_projected_requests_cache_separately(self):
        query = parse_query(STAR)
        store = ArtifactStore(star_database())
        full = store.access(query, order=["x", "y", "z", "w"])
        materialized = store.stats.bag_materializations
        projected = store.access(
            query, order=["x", "y", "z", "w"], projected={"w"}
        )
        # Bag relations are shared with the full-order request ...
        assert store.stats.bag_materializations == materialized
        assert store.stats.preprocessing.hits == 1
        # ... but the counting forest is projected-set specific.
        assert store.stats.forest.misses == 2
        expected = sorted({t[:3] for t in enumerate_all(full)})
        assert enumerate_all(projected) == expected

    def test_structurally_equal_query_shares_cache(self):
        store = ArtifactStore(star_database())
        store.access(parse_query(STAR), order=["x", "y", "z", "w"])
        materialized = store.stats.bag_materializations
        renamed = parse_query(
            "P(x, y, z, w) :- R(x, y), S(x, z), T(x, w)"
        )
        store.access(renamed, order=["x", "z", "w", "y"])
        assert store.stats.bag_materializations == materialized

    def test_renamed_query_served_after_artifact_eviction(self):
        """Regression: a warm plan for query A must be reusable to
        rebuild evicted artifacts for a same-body query named B (the
        decomposition guard compares signatures, not head names)."""
        query_a = parse_query("A(x, y, z) :- R(x, y), S(y, z)")
        query_b = parse_query("B(x, y, z) :- R(x, y), S(y, z)")
        other = parse_query("O(u, v) :- T(u, v)")
        database = Database(
            {
                "R": {(1, 2), (3, 2)},
                "S": {(2, 7), (2, 9)},
                "T": {(0, 0)},
            }
        )
        store = ArtifactStore(database, capacity=1)
        store.access(query_a)  # plan + artifacts for A
        store.access(other, order=["u", "v"])  # evicts A's artifacts
        access = store.access(query_b)  # warm plan, cold artifacts
        assert len(access) == 4


class TestDecompositionCacheKey:
    """cache_key is canonical: equal iff the decompositions are equal."""

    def test_property_random_order_pairs(self):
        rng = random.Random(2024)
        checked_equal = 0
        for _ in range(60):
            query = random_join_query(rng)
            variables = list(query.variables)
            order_a = VariableOrder(
                rng.sample(variables, len(variables))
            )
            order_b = VariableOrder(
                rng.sample(variables, len(variables))
            )
            da = DisruptionFreeDecomposition(query, order_a)
            db_ = DisruptionFreeDecomposition(query, order_b)
            structure = lambda d: {
                bag.variable: (bag.edge, bag.interface)
                for bag in d.bags
            }
            same_structure = structure(da) == structure(db_)
            assert (da.cache_key() == db_.cache_key()) == same_structure
            if not same_structure:
                continue
            checked_equal += 1
            # Same decomposition => the store serves order_b from
            # order_a's preprocessing, with identical answers.
            database = random_database_for(query, rng)
            store = ArtifactStore(database)
            store.access(query, order=order_a)
            materialized = store.stats.bag_materializations
            warm = store.access(query, order=order_b)
            assert (
                store.stats.bag_materializations == materialized
            ), f"{query} {list(order_a)} {list(order_b)}"
            assert enumerate_all(warm) == lex_answers(
                query, database, order_b
            )
        assert checked_equal >= 5  # the property was actually exercised

    def test_key_differs_across_decompositions(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        cheap = DisruptionFreeDecomposition(
            query, VariableOrder(["x", "y", "z"])
        )
        costly = DisruptionFreeDecomposition(
            query, VariableOrder(["x", "z", "y"])
        )
        assert cheap.cache_key() != costly.cache_key()


class TestPlanning:
    def test_advisor_picks_cheapest_cold(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        store = ArtifactStore(
            random_database_for(query, random.Random(1))
        )
        report = store.plan(query)
        assert report.iota == 1
        access = store.access(query)
        assert list(access.order) == list(report.order)

    def test_prefix_planning(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        store = ArtifactStore(
            random_database_for(query, random.Random(2))
        )
        access = store.access(query, prefix=["y"])
        assert list(access.order)[0] == "y"
        assert enumerate_all(access) == lex_answers(
            query, store.database, access.order
        )

    def test_cache_aware_order_choice(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        database = random_database_for(query, random.Random(3))
        store = ArtifactStore(database)
        # (z, y, x) ties the cold pick (x, y, z) at iota 1 with another
        # decomposition; once warm, the tie breaks towards it.
        warm_order = ["z", "y", "x"]
        assert list(store.plan(query).order) != warm_order
        store.access(query, order=warm_order)
        report = store.plan(query)
        assert list(report.order) == warm_order
        assert store.stats.cache_preferred_orders == 1
        # A warm iota-2 order never beats the cold optimum.
        strict = ArtifactStore(database)
        strict.access(query, order=["x", "z", "y"])
        assert strict.plan(query).iota == 1
        assert strict.stats.cache_preferred_orders == 0

    def test_plan_accepts_plain_list_prefix(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        store = ArtifactStore(
            random_database_for(query, random.Random(8))
        )
        report = store.plan(query, ["y"])  # cold plan cache
        assert list(report.order)[0] == "y"

    def test_injected_forest_must_match_request(self):
        from repro.errors import QueryError

        query = parse_query(STAR)
        order = VariableOrder(["x", "y", "z", "w"])
        database = star_database()
        full = DirectAccess(query, order, database)
        # Same decomposition, different projection: must be rejected,
        # not silently double-counted.
        with pytest.raises(QueryError):
            DirectAccess(
                query,
                order,
                database,
                projected={"w"},
                forest=full.forest,
            )
        # Different decomposition of the same variables: rejected too.
        path = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        path_db = Database({"R": {(1, 2)}, "S": {(2, 3)}})
        cheap = DirectAccess(
            path, VariableOrder(["x", "y", "z"]), path_db
        )
        with pytest.raises(QueryError):
            DirectAccess(
                path,
                VariableOrder(["x", "z", "y"]),
                path_db,
                forest=cheap.forest,
            )
        # A different database: rejected (stale counts, not answers).
        with pytest.raises(QueryError):
            DirectAccess(
                query, order, star_database(seed=1), forest=full.forest
            )
        # The matching forest is accepted (the store's warm path).
        warm = DirectAccess(
            query,
            VariableOrder(["x", "w", "z", "y"]),
            database,
            forest=full.forest,
        )
        assert len(warm) == len(full)

    def test_injected_bag_tables_must_match_database(self):
        from repro.core.preprocessing import Preprocessing
        from repro.errors import QueryError

        query = parse_query("Q(x, y) :- R(x, y)")
        order = VariableOrder(["x", "y"])
        db_old = Database({"R": {(1, 2)}})
        db_new = Database({"R": {(1, 2), (3, 4)}})
        old = Preprocessing(query, order, db_old)
        with pytest.raises(QueryError):
            Preprocessing(
                query, order, db_new, bag_tables=old.bag_tables()
            )
        # The matching carrier replays without re-materializing.
        warm = Preprocessing(
            query, order, db_old, bag_tables=old.bag_tables()
        )
        assert warm.materialized_bag_count == 0

    def test_injected_preprocessing_must_match_database(self):
        from repro.core.preprocessing import Preprocessing
        from repro.errors import QueryError

        query = parse_query("Q(x, y) :- R(x, y)")
        order = VariableOrder(["x", "y"])
        db_old = Database({"R": {(1, 2)}})
        db_new = Database({"R": {(1, 2), (3, 4)}})
        prep = Preprocessing(query, order, db_old)
        with pytest.raises(QueryError):
            DirectAccess(query, order, db_new, preprocessing=prep)

    def test_plan_results_are_memoized(self):
        query = parse_query(STAR)
        store = ArtifactStore(star_database())
        store.access(query)
        store.access(query)
        assert store.stats.advisor_calls == 1

    def test_projected_needs_explicit_order(self):
        store = ArtifactStore(star_database())
        with pytest.raises(OrderError):
            store.access(parse_query(STAR), projected={"w"})

    def test_conflicting_order_and_prefix_raise(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        store = ArtifactStore(
            random_database_for(query, random.Random(7))
        )
        with pytest.raises(OrderError):
            store.access(query, order=["x", "y", "z"], prefix=["y"])
        # A consistent pair is served normally.
        access = store.access(
            query, order=["y", "x", "z"], prefix=["y"]
        )
        assert list(access.order) == ["y", "x", "z"]

    def test_plan_cache_keeps_only_tied_optimal_orders(self):
        query = parse_query(STAR)  # 4 variables, 24 orders
        store = ArtifactStore(star_database())
        store.plan(query)
        (stored,) = store.cache("plans")._entries.values()
        best = stored[0].iota
        assert all(report.iota == best for report in stored)
        assert len(stored) < 24


class TestSessionMechanics:
    def test_task_conveniences(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        database = random_database_for(query, random.Random(4))
        store = ArtifactStore(database)
        order = ["x", "y", "z"]
        answers = lex_answers(query, database, VariableOrder(order))
        access = store.access(query, order=order)
        assert len(access) == len(answers)
        if answers:
            assert tasks.median(access) == answers[(len(answers) - 1) // 2]
            assert tasks.page(access, 0, 3) == answers[:3]
            assert access.rank_of(answers[-1]) == len(answers) - 1

    def test_lru_eviction_keeps_serving(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        database = random_database_for(query, random.Random(5))
        store = ArtifactStore(database, capacity=1)
        orders = (["x", "y", "z"], ["y", "x", "z"], ["x", "y", "z"])
        for order in orders:
            access = store.access(query, order=order)
            assert enumerate_all(access) == lex_answers(
                query, database, VariableOrder(order)
            )
        assert store.stats.preprocessing.evictions >= 1

    def test_clear_drops_artifacts_but_keeps_counters(self):
        query = parse_query(STAR)
        store = ArtifactStore(star_database())
        store.access(query, order=["x", "y", "z", "w"])
        store.clear()
        store.access(query, order=["x", "y", "z", "w"])
        assert store.stats.bag_materializations == 8

    def test_cache_stats_snapshot_shape(self):
        """One counter view: after a mixed stream, ``Connection.stats()``
        and the ``stats`` op report exactly the store's counters."""
        for engine in available_engines():
            self.check_one_counter_view(engine)

    @staticmethod
    def check_one_counter_view(engine):
        conn = connect(star_database(), engine=engine, cache=3)
        conn.prepare(STAR, order=["x", "y", "z", "w"])
        conn.prepare(STAR, order=["x", "y", "z", "w"])  # warm
        conn.prepare(STAR, order=["x", "w", "z", "y"])  # sibling
        conn.prepare(STAR)  # planned
        pinned = conn.prepare(STAR, order=["y", "x", "z", "w"])
        conn.insert("R", [(99, 98)])
        assert pinned.db_version == 0 and len(pinned) > 0
        conn.prepare("Q(x, y) :- R(x, y)", order=["y", "x"])
        conn.prepare(STAR, order=["z", "x", "y", "w"])  # evicts
        stats = conn.stats()
        op = execute(conn, SessionRequest(op="stats")).result
        assert op == stats
        store = stats["store"]
        assert store == conn.session.cache_stats()
        assert set(stats) == {
            "requests",
            "advisor_calls",
            "cache_preferred_orders",
            "bag_materializations",
            "forest_builds",
            "bag_patches",
            "forest_patches",
            "preprocessing",
            "forest",
            "access",
            "plans",
            "decompositions",
            "store",
        }
        for key in set(stats) - {"store"}:
            assert stats[key] == store[key], key
        assert "sessions" not in store
        assert store["database_encodes"] == 1
        assert stats["requests"] == 7
        assert stats["access"]["evictions"] >= 1
        assert (
            stats["access"]["hits"] + stats["access"]["misses"]
            == stats["requests"]
        )
        pinned.close()

    def test_session_engine_is_pinned(self):
        query = parse_query("Q(x, y) :- R(x, y)")
        database = Database({"R": {(1, 2), (2, 3)}})
        for engine in available_engines():
            store = ArtifactStore(database, engine=engine)
            access = store.access(query, order=["x", "y"])
            assert access.engine_name == engine


class TestWarmRequestPath:
    """A warm protocol read is one lookup in the store's request map —
    no parse, no plan, no build — and the map's entries live exactly
    as long as the ``access`` artifacts they resolve to."""

    QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
    ORDER = ("x", "y", "z")
    # Sorted by (x, y, z), before and after inserting R(0, 2).
    ANSWERS = [(1, 2, 7), (1, 2, 9), (3, 2, 7), (3, 2, 9), (3, 4, 1)]
    INSERTED = [(0, 2, 7), (0, 2, 9)] + ANSWERS

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Counts calls to the query parser and to the planner."""
        import repro.session.artifacts as artifacts_module

        counts = {"parse": 0, "plan": 0}
        parse, plan = artifacts_module.parse_query, ArtifactStore.plan

        def counting_parse(*args, **kwargs):
            counts["parse"] += 1
            return parse(*args, **kwargs)

        def counting_plan(self, *args, **kwargs):
            counts["plan"] += 1
            return plan(self, *args, **kwargs)

        monkeypatch.setattr(artifacts_module, "parse_query", counting_parse)
        monkeypatch.setattr(ArtifactStore, "plan", counting_plan)
        return counts

    @staticmethod
    def connection(**kwargs):
        return connect(
            {
                "R": {(1, 2), (3, 2), (3, 4)},
                "S": {(2, 7), (2, 9), (4, 1)},
                "T": {(5, 6)},
            },
            **kwargs,
        )

    def reads(self, order=ORDER, db_version=None):
        """One access, one rank and one page request of the query."""
        fields = dict(query=self.QUERY, order=order, db_version=db_version)
        return [
            SessionRequest(op="access", indices=(0, -1), **fields),
            SessionRequest(op="rank", answer=(3, 4, 1), **fields),
            SessionRequest(op="page", page_number=0, page_size=2, **fields),
        ]

    @staticmethod
    def serve(conn, calls, request):
        """The response's result and the parse/plan calls it made."""
        before = dict(calls)
        response = execute(conn, request)
        assert response.ok, response.error
        return response.result, {
            name: calls[name] - before[name] for name in calls
        }

    @pytest.mark.parametrize("order", [ORDER, None])
    def test_warm_reads_neither_parse_nor_plan(self, calls, order):
        conn = self.connection()
        stats = conn.session.stats
        cold = self.reads(order)[0]
        _, made = self.serve(conn, calls, cold)
        assert made == {"parse": 1, "plan": 0 if order else 1}
        hits = stats.access.hits
        for _round in range(3):
            for request in self.reads(order):
                result, made = self.serve(conn, calls, request)
                assert made == {"parse": 0, "plan": 0}, request.op
        assert result["answers"] == [list(row) for row in self.ANSWERS[:2]]
        # Every warm read still counts as a request and an access hit.
        assert stats.requests == 1 + 9
        assert stats.access.hits == hits + 9
        # The facade's prepare shares the map.
        before = dict(calls)
        view = conn.prepare(self.QUERY, order=order)
        assert calls == before
        assert view[-1] == self.ANSWERS[-1]

    @pytest.mark.parametrize("order", [ORDER, None])
    def test_apply_makes_the_next_read_resolve_exactly_once(
        self, calls, order
    ):
        conn = self.connection()
        store = conn.session
        for request in self.reads(order):
            self.serve(conn, calls, request)
        assert store.request_count() == 1
        conn.insert("R", [(0, 2)])
        # The old version is still retained: its artifact, and with it
        # its entry, stay at v0.
        assert store.request_count() == 1
        result, made = self.serve(conn, calls, self.reads(order)[0])
        assert made == {"parse": 1, "plan": 0 if order else 1}
        assert result["answers"] == [
            list(self.INSERTED[0]), list(self.INSERTED[-1])
        ]
        for request in self.reads(order):
            _, made = self.serve(conn, calls, request)
            assert made == {"parse": 0, "plan": 0}
        assert store.request_count() == 2
        # A read pinned to v0 is still one lookup.
        _, made = self.serve(conn, calls, self.reads(order, db_version=0)[0])
        assert made == {"parse": 0, "plan": 0}
        # With a one-version window, v0 leaves the plane at the insert
        # and its entry dies with its artifact.
        narrow = self.connection(retain_versions=1)
        for request in self.reads(order):
            self.serve(narrow, calls, request)
        assert narrow.session.request_count() == 1
        narrow.insert("R", [(0, 2)])
        assert narrow.session.request_count() == 0

    def test_a_carried_artifact_keeps_its_entry(self, calls):
        conn = self.connection()
        carried = SessionRequest(
            op="access", query="P(u, w) :- T(u, w)", order=("u", "w"),
            indices=(0,),
        )
        self.serve(conn, calls, carried)
        conn.insert("R", [(0, 2)])  # T is untouched
        result, made = self.serve(conn, calls, carried)
        assert made == {"parse": 0, "plan": 0}
        assert result == {
            "order": ["u", "w"], "db_version": 1, "indices": [0],
            "answers": [[5, 6]],
        }

    def test_clear_cache_makes_the_next_read_cold(self, calls):
        conn = self.connection()
        request = self.reads()[0]
        self.serve(conn, calls, request)
        conn.clear_cache()
        assert conn.session.request_count() == 0
        _, made = self.serve(conn, calls, request)
        assert made == {"parse": 1, "plan": 0}
        _, made = self.serve(conn, calls, request)
        assert made == {"parse": 0, "plan": 0}

    def test_pinned_and_head_reads_never_share_an_entry(self, calls):
        conn = self.connection()
        view = conn.prepare(self.QUERY, order=self.ORDER)  # pins v0
        conn.insert("R", [(0, 2)])
        for _round in range(2):
            pinned, _ = self.serve(
                conn, calls, self.reads(db_version=0)[0]
            )
            head, _ = self.serve(conn, calls, self.reads()[0])
            assert pinned["db_version"] == 0
            assert pinned["answers"] == [
                list(self.ANSWERS[0]), list(self.ANSWERS[-1])
            ]
            assert head["db_version"] == 1
            assert head["answers"] == [
                list(self.INSERTED[0]), list(self.INSERTED[-1])
            ]
        # Both are warm now, each under its own version.
        assert conn.session.request_count() == 2
        for request in self.reads(db_version=0) + self.reads():
            _, made = self.serve(conn, calls, request)
            assert made == {"parse": 0, "plan": 0}
        view.close()

    def test_distinct_query_texts_stay_bounded(self):
        conn = self.connection(cache=16)
        store = conn.session
        # 500 spellings of one query, then 500 distinct queries: the
        # map never holds more entries than resident access artifacts.
        texts = [
            "Q(x, y) :- R(x," + " " * spaces + "y)"
            for spaces in range(500)
        ] + [f"Q(a{i}, b{i}) :- R(a{i}, b{i})" for i in range(500)]
        for text in texts:
            response = execute(
                conn, SessionRequest(op="count", query=text)
            )
            assert response.ok, response.error
            assert response.result["count"] == 3
            assert store.request_count() <= len(store.cache("access"))
        assert len(store.cache("access")) <= 16


class TestEncodedDatabase:
    def test_relations_share_one_dictionary(self):
        database = EncodedDatabase(
            {"R": {(1, 2), (3, 4)}, "S": {(2, 5)}}
        )
        if not numpy_available():
            assert database.shared_dictionary is None
            return
        dictionary = database.shared_dictionary
        assert dictionary is not None
        assert dictionary.values == [1, 2, 3, 4, 5]
        for relation in database.relations.values():
            assert relation._columnar.dictionary is dictionary

    def test_same_answers_as_plain_database(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        rng = random.Random(6)
        relations = {
            "R": Relation(
                {(rng.randrange(6), rng.randrange(6)) for _ in range(20)},
                arity=2,
            ),
            "S": Relation(
                {(rng.randrange(6), rng.randrange(6)) for _ in range(20)},
                arity=2,
            ),
        }
        order = VariableOrder(["x", "y", "z"])
        expected = lex_answers(query, Database(relations), order)
        for engine in available_engines():
            with use_engine(engine):
                access = DirectAccess(
                    query, order, EncodedDatabase(relations)
                )
            assert enumerate_all(access) == expected

    def test_incomparable_domain_degrades_gracefully(self):
        database = EncodedDatabase(
            {"R": {(1, "u"), (2, "v")}, "S": {("u",)}}
        )
        assert database.shared_dictionary is None
        query = parse_query("Q(x, y) :- R(x, y), S(y)")
        store = ArtifactStore(database)
        access = store.access(query, order=["x", "y"])
        assert enumerate_all(access) == [(1, "u")]

    def test_extended_reencodes(self):
        database = EncodedDatabase({"R": {(1, 2)}})
        extended = database.extended({"S": {(9,)}})
        assert isinstance(extended, EncodedDatabase)
        if numpy_available():
            assert extended.shared_dictionary.values == [1, 2, 9]
            # ... without stealing the original's mirrors: db1's
            # relations must keep pointing at db1's dictionary.
            assert (
                database.relations["R"]._columnar.dictionary
                is database.shared_dictionary
            )

    def test_lazy_prefix_is_consumed_once(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        store = ArtifactStore(
            random_database_for(query, random.Random(10))
        )
        access = store.access(
            query, order=["y", "x", "z"], prefix=iter(["y"])
        )
        assert list(access.order) == ["y", "x", "z"]


class TestThreadSafety:
    """Every counter moves under the store's registry lock, so
    :meth:`ArtifactStore.cache_stats` snapshots are atomic."""

    def test_concurrent_requests_one_preprocessing_pass(self):
        import threading

        query = parse_query(STAR)
        store = ArtifactStore(star_database(), capacity=None)
        # Sibling orders: same decomposition, one bag-materialization
        # pass total no matter how the threads interleave.
        orders = [
            ["x", "y", "z", "w"],
            ["x", "w", "z", "y"],
            ["x", "z", "y", "w"],
            None,
        ]
        errors: list[BaseException] = []
        counts: list[int] = []

        def worker(order):
            try:
                for _ in range(4):
                    access = store.access(query, order=order)
                    counts.append(len(access))
                    snapshot = store.cache_stats()
                    # Atomic snapshot: work counters can never run
                    # ahead of the requests that caused them.
                    assert (
                        snapshot["bag_materializations"]
                        <= 4 * snapshot["requests"]
                    )
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(order,))
            for order in orders * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(counts)) == 1
        stats = store.cache_stats()
        assert stats["requests"] == 4 * len(threads)
        # The lock serializes building: the decomposition is shared, so
        # exactly one preprocessing pass happened (4 bags).
        assert stats["bag_materializations"] == 4

    def test_snapshot_is_a_plain_copy(self):
        store = ArtifactStore(star_database())
        first = store.cache_stats()
        store.access(parse_query(STAR), order=["x", "y", "z", "w"])
        second = store.cache_stats()
        assert first["requests"] == 0  # unaffected by later mutation
        assert second["requests"] == 1

    def test_use_engine_scope_does_not_deadlock_with_session_lock(self):
        """Regression: use_engine is thread-local (lock-free), so a
        thread serving inside a use_engine scope and a thread serving
        directly can never deadlock on lock order."""
        import threading

        from repro import use_engine

        query = parse_query(STAR)
        store = ArtifactStore(star_database(), capacity=None)
        errors: list[BaseException] = []
        done = threading.Event()

        def scoped():
            try:
                for index in range(10):
                    with use_engine("python"):
                        order = ["x", "y", "z", "w"]
                        order[1 + index % 3], order[1] = (
                            order[1], order[1 + index % 3],
                        )
                        store.access(query, order=order)
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        def direct():
            try:
                for _ in range(10):
                    store.access(query, order=["x", "y", "z", "w"])
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        threads = [
            threading.Thread(target=scoped, daemon=True),
            threading.Thread(target=direct, daemon=True),
            threading.Thread(target=scoped, daemon=True),
            threading.Thread(target=direct, daemon=True),
        ]
        for thread in threads:
            thread.start()

        def joiner():
            for thread in threads:
                thread.join()
            done.set()

        threading.Thread(target=joiner, daemon=True).start()
        assert done.wait(timeout=30), "threads deadlocked"
        assert not errors
