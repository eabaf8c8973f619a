"""Tests for the public facade: connect / Connection / AnswerView.

Also the surface tripwire (:class:`TestPublicSurface`): the second
public API, stdin grammar, session constructor and staleness contract
were deleted in 2.0, and this is where a copy growing back fails.
"""

from __future__ import annotations

import collections.abc
import inspect
import threading
from fractions import Fraction

import pytest

from repro import (
    Database,
    NotAnAnswerError,
    OutOfBoundsError,
    ReproError,
    connect,
)
from repro.engine import available_engines
from repro.facade import AnswerView, Connection

TWO_PATH = "Q(x, y, z) :- R(x, y), S(y, z)"


def two_path_connection(engine=None) -> Connection:
    return connect(
        {
            "R": {(1, 2), (3, 2), (3, 5)},
            "S": {(2, 7), (2, 9), (5, 1)},
        },
        engine=engine,
    )


def two_path_view(engine=None) -> AnswerView:
    return two_path_connection(engine).prepare(
        TWO_PATH, order=["x", "y", "z"]
    )


# Sorted by (x, y, z):
TWO_PATH_ANSWERS = [
    (1, 2, 7),
    (1, 2, 9),
    (3, 2, 7),
    (3, 2, 9),
    (3, 5, 1),
]


class TestConnect:
    def test_accepts_plain_mapping_and_database(self):
        for database in (
            {"R": {(1, 2)}},
            Database({"R": {(1, 2)}}),
        ):
            view = connect(database).prepare(
                "Q(x, y) :- R(x, y)", order=["x", "y"]
            )
            assert list(view) == [(1, 2)]

    def test_connection_context_manager_closes(self):
        with two_path_connection() as conn:
            assert not conn.closed
            conn.prepare(TWO_PATH, order=["x", "y", "z"])
        assert conn.closed
        with pytest.raises(ReproError):
            conn.prepare(TWO_PATH, order=["x", "y", "z"])

    def test_prepare_is_cache_aware_planning(self):
        conn = two_path_connection()
        conn.prepare(TWO_PATH, order=["x", "y", "z"])
        cold = conn.stats()["bag_materializations"]
        conn.prepare(TWO_PATH, order=["x", "y", "z"])
        assert conn.stats()["bag_materializations"] == cold

    def test_prepare_without_order_uses_planner(self):
        conn = two_path_connection()
        view = conn.prepare(TWO_PATH)
        assert list(view.order) == list(conn.plan(TWO_PATH).order)

    def test_prefix_constrains_planner(self):
        view = two_path_connection().prepare(TWO_PATH, prefix=["z"])
        assert list(view.order)[0] == "z"

    def test_engine_pinned(self):
        for engine in available_engines():
            conn = two_path_connection(engine)
            assert conn.engine_name == engine
            view = conn.prepare(TWO_PATH, order=["x", "y", "z"])
            assert view.engine_name == engine


class TestSequenceContract:
    def test_isinstance_sequence(self):
        view = two_path_view()
        assert isinstance(view, collections.abc.Sequence)
        assert isinstance(view[1:], collections.abc.Sequence)

    def test_len_and_positional_access(self):
        view = two_path_view()
        assert len(view) == 5
        assert [view[i] for i in range(5)] == TWO_PATH_ANSWERS

    def test_negative_indices(self):
        view = two_path_view()
        assert view[-1] == TWO_PATH_ANSWERS[-1]
        assert view[-5] == TWO_PATH_ANSWERS[0]

    def test_out_of_bounds_is_index_error(self):
        view = two_path_view()
        for bad in (5, -6, 99):
            with pytest.raises(OutOfBoundsError):
                view[bad]
            with pytest.raises(IndexError):  # the Sequence contract
                view[bad]

    def test_iter_and_reversed(self):
        view = two_path_view()
        assert list(view) == TWO_PATH_ANSWERS
        assert list(reversed(view)) == TWO_PATH_ANSWERS[::-1]

    def test_iteration_is_chunked(self):
        view = two_path_view()
        assert view.ITER_CHUNK >= 1
        counters = view.op_counters()
        list(view)
        after = view.op_counters()
        assert (
            after.get("access_batches", 0)
            - counters.get("access_batches", 0)
            == 1  # 5 answers, one batch
        )

    def test_slices_are_lazy_views(self):
        view = two_path_view()
        sub = view[1:4]
        assert isinstance(sub, AnswerView)
        assert list(sub) == TWO_PATH_ANSWERS[1:4]
        assert len(sub) == 3
        assert sub[-1] == TWO_PATH_ANSWERS[3]

    @pytest.mark.parametrize(
        "sl",
        [
            slice(None),
            slice(1, 4),
            slice(None, None, 2),
            slice(4, None, -1),
            slice(-2, None),
            slice(None, -2),
            slice(-1, 0, -2),
            slice(10, 20),
            slice(3, 1),
        ],
    )
    def test_slice_law(self, sl):
        view = two_path_view()
        assert list(view[sl]) == TWO_PATH_ANSWERS[sl]

    def test_slice_of_slice(self):
        view = two_path_view()
        assert (
            list(view[1:5][::-2]) == TWO_PATH_ANSWERS[1:5][::-2]
        )

    def test_bool(self):
        view = two_path_view()
        assert view
        assert not view[0:0]


class TestInverseAccess:
    @pytest.mark.parametrize("engine", available_engines())
    def test_rank_round_trips(self, engine):
        view = two_path_view(engine)
        for i, answer in enumerate(TWO_PATH_ANSWERS):
            assert view.rank(answer) == i
            assert view[view.rank(answer)] == answer

    @pytest.mark.parametrize("engine", available_engines())
    def test_contains_index_count(self, engine):
        view = two_path_view(engine)
        for i, answer in enumerate(TWO_PATH_ANSWERS):
            assert answer in view
            assert view.index(answer) == i
            assert view.count(answer) == 1
        assert (9, 9, 9) not in view
        assert "junk" not in view
        assert (1, 2) not in view
        assert view.count((9, 9, 9)) == 0

    @pytest.mark.parametrize("engine", available_engines())
    def test_rank_of_non_answer_raises_value_error(self, engine):
        view = two_path_view(engine)
        with pytest.raises(NotAnAnswerError):
            view.rank((9, 9, 9))
        with pytest.raises(ValueError):  # Sequence contract
            view.index((9, 9, 9))
        with pytest.raises(ValueError):
            view.index(("a", [], None))

    def test_index_start_stop(self):
        view = two_path_view()
        assert view.index((3, 2, 7), 1) == 2
        assert view.index((3, 2, 7), 1, 3) == 2
        assert view.index((3, 2, 7), -4) == 2
        with pytest.raises(ValueError):
            view.index((3, 2, 7), 3)
        with pytest.raises(ValueError):
            view.index((3, 2, 7), 0, 2)
        with pytest.raises(ValueError):
            view.index((3, 2, 7), 0, -4)

    def test_rank_respects_slice_windows(self):
        view = two_path_view()
        sub = view[1:4]
        assert sub.rank(TWO_PATH_ANSWERS[2]) == 1
        assert TWO_PATH_ANSWERS[0] not in sub
        with pytest.raises(NotAnAnswerError):
            sub.rank(TWO_PATH_ANSWERS[0])
        back = view[::-1]
        assert back.rank(TWO_PATH_ANSWERS[0]) == 4
        assert back[back.rank(TWO_PATH_ANSWERS[0])] == TWO_PATH_ANSWERS[0]

    def test_batch_ranks(self):
        view = two_path_view()
        rows = [TWO_PATH_ANSWERS[3], (9, 9, 9), TWO_PATH_ANSWERS[0]]
        assert view.ranks(rows) == [3, None, 0]

    @pytest.mark.parametrize("engine", available_engines())
    def test_rank_never_enumerates(self, engine):
        """Acceptance criterion: inverse access on a >= 10^4 answer view
        performs zero positional accesses (no enumeration fallback),
        asserted via the engine op counters."""
        n = 100
        conn = connect(
            {"R": {(i, j) for i in range(n) for j in range(n)}},
            engine=engine,
        )
        view = conn.prepare("Q(x, y) :- R(x, y)", order=["x", "y"])
        assert len(view) == n * n == 10_000
        before = view.op_counters()
        assert view.rank((57, 93)) == 57 * n + 93
        assert (13, 99) in view
        assert view.index((0, 1)) == 1
        with pytest.raises(NotAnAnswerError):
            view.rank((n, 0))
        after = view.op_counters()
        for scan_key in ("answer_walks", "access_batches", "access_indices"):
            assert after.get(scan_key, 0) == before.get(scan_key, 0), (
                f"rank lookup resolved positional accesses ({scan_key})"
            )
        assert after["rank_batches"] - before.get("rank_batches", 0) == 4

    @pytest.mark.parametrize("engine", available_engines())
    def test_rank_with_projection(self, engine):
        conn = connect(
            {
                "R": {(1, 2), (1, 3), (4, 2)},
                "S": {(2, 5), (2, 6), (3, 7)},
            },
            engine=engine,
        )
        view = conn.prepare(
            TWO_PATH, order=["x", "y", "z"], projected={"z"}
        )
        answers = list(view)
        assert answers == [(1, 2), (1, 3), (4, 2)]
        for i, answer in enumerate(answers):
            assert view.rank(answer) == i
        assert (4, 3) not in view


class TestTaskMethods:
    def test_match_sorted_list_semantics(self):
        view = two_path_view()
        full = TWO_PATH_ANSWERS
        assert view.median() == full[(len(full) - 1) // 2]
        assert view.quantile(0) == full[0]
        assert view.quantile(1) == full[-1]
        assert view.quantile(Fraction(1, 4)) == full[1]
        box = view.boxplot()
        assert box["min"] == full[0] and box["max"] == full[-1]
        assert view.page(1, 2) == full[2:4]
        assert view.page(9, 2) == []
        sample = view.sample(3, seed=7)
        assert len(sample) == len(set(sample)) == 3
        assert all(answer in view for answer in sample)
        assert view.to_list() == full

    def test_tasks_on_sliced_views(self):
        view = two_path_view()
        sub = view[1:4]
        assert sub.median() == TWO_PATH_ANSWERS[2]
        assert sub.page(0, 2) == TWO_PATH_ANSWERS[1:3]
        assert sub.sample(3, seed=0)

    def test_task_errors(self):
        view = two_path_view()
        with pytest.raises(OutOfBoundsError):
            view.page(-1, 2)
        with pytest.raises(OutOfBoundsError):
            view.sample(-1)
        with pytest.raises(OutOfBoundsError):
            view.sample(len(view) + 1)
        with pytest.raises(OutOfBoundsError):
            view[0:0].median()


class TestPublicSurface:
    """One of each: what 2.0 deleted stays deleted."""

    def test_all_is_a_literal_set(self):
        import repro

        assert set(repro.__all__) == {
            "AnswerTester", "AnswerView", "Atom",
            "ConjunctiveQuery", "Connection", "Database", "Delta",
            "DisruptionFreeDecomposition", "EncodedDatabase",
            "EngineError", "JoinQuery", "NotAnAnswerError",
            "OrderlessFourCycleAccess", "OutOfBoundsError",
            "ProtocolError", "Relation", "ReproError",
            "SelfJoinFreeAccess", "SessionRequest", "SessionResponse",
            "StaleViewError", "TightBounds", "VariableOrder",
            "WriteAheadLog", "__version__", "available_engines",
            "cheapest_order", "classify", "connect",
            "fractional_hypertree_width", "get_engine",
            "incompatibility_number", "parse_query",
            "partial_order_access", "rank_orders", "set_engine",
            "use_engine",
        }
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize(
        "name",
        ["AccessSession", "DirectAccess", "Preprocessing", "DoesNotExist"],
    )
    def test_removed_entry_points_raise_attribute_error(self, name):
        import repro

        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_protocol_exports_no_text_grammar(self):
        from repro.session import protocol

        assert set(protocol.__all__) == {
            "MUTATION_OPS", "OPS", "OP_SUMMARIES", "PROTOCOL_VERSION",
            "VIEW_OPS", "SessionRequest", "SessionResponse",
            "delta_from_request", "execute", "mutation_result",
        }

    def test_session_is_built_from_a_store(self):
        """One object per database: a connection wraps its store, and
        the store is the serving session."""
        import repro.session
        from repro.session import ArtifactStore

        parameters = inspect.signature(Connection.__init__).parameters
        assert list(parameters) == ["self", "store"]
        store = ArtifactStore({"R": {(1, 2)}})
        assert Connection(store).session is store
        assert "SessionStats" not in repro.session.__all__
        assert not hasattr(repro.session, "AccessSession")

    def test_staleness_contract_has_no_switch(self):
        """MVCC-retained snapshots with StaleViewError on eviction is
        the one contract: nothing takes a strict-staleness flag — nor
        the deleted planning-slack and per-worker-stats knobs."""
        from repro.server import AsyncReproServer, ReproServer, ServingCore
        from repro.session import ArtifactStore

        forbidden = ("strict", "cache_slack", "stats_per_worker")
        for factory in (
            connect, ArtifactStore, ReproServer, AsyncReproServer,
            ServingCore,
        ):
            parameters = inspect.signature(factory).parameters
            assert not [
                name
                for name in parameters
                if any(word in name for word in forbidden)
            ], factory

    def test_connect_made_connection_clears_its_store(self):
        conn = two_path_connection()
        conn.prepare(TWO_PATH, order=["x", "y", "z"])
        cold = conn.stats()["bag_materializations"]
        assert cold > 0
        conn.prepare(TWO_PATH, order=["x", "y", "z"])
        assert conn.stats()["bag_materializations"] == cold  # warm
        conn.clear_cache()
        conn.prepare(TWO_PATH, order=["x", "y", "z"])
        # Emptied store: the next prepare re-materialises its bags
        # (the ledger's cold ``prepare_s`` phase depends on this).
        assert conn.stats()["bag_materializations"] == 2 * cold


class TestThreadSafety:
    def test_connections_have_independent_op_counters(self):
        first = two_path_view()
        second = two_path_view()
        baseline = second.op_counters().get("answer_walks", 0)
        first[0]
        first[1]
        assert (
            second.op_counters().get("answer_walks", 0) == baseline
        ), "one connection's work moved another's counters"

    def test_concurrent_sessions_keep_their_engines(self):
        """Two connections pinning different engines must never build
        on each other's engine, however their threads interleave."""
        engines = available_engines()
        if len(engines) < 2:
            pytest.skip("needs two engines")
        connections = {
            engine: two_path_connection(engine) for engine in engines
        }
        errors: list[BaseException] = []
        observed: list[list[tuple]] = []

        def worker(engine):
            try:
                conn = connections[engine]
                for index in range(6):
                    # Alternate orders so builds keep happening.
                    order = (
                        ["x", "y", "z"]
                        if index % 2
                        else ["z", "y", "x"]
                    )
                    view = conn.prepare(TWO_PATH, order=order)
                    assert view.engine_name == engine
                    # Canonicalize: tuples are laid out per order, so
                    # compare variable->value bindings instead.
                    observed.append(
                        sorted(
                            tuple(sorted(zip(view.columns, answer)))
                            for answer in view
                        )
                    )
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(engine,))
            for engine in engines * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len({tuple(rows) for rows in observed}) == 1

    def test_concurrent_prepare_and_stats(self):
        conn = connect(
            {
                "R": {(i, i % 7) for i in range(60)},
                "S": {(i % 7, i % 5) for i in range(60)},
            }
        )
        orders = [["x", "y", "z"], ["z", "y", "x"], ["y", "x", "z"], None]
        errors: list[BaseException] = []
        results: list[int] = []

        def worker(order):
            try:
                for _ in range(5):
                    view = conn.prepare(TWO_PATH, order=order)
                    results.append(len(view))
                    snapshot = conn.stats()
                    assert isinstance(snapshot, dict)
                    assert snapshot["requests"] >= 1
            except BaseException as error:  # noqa: BLE001 (re-raised)
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(order,))
            for order in orders * 3
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(results)) == 1  # every order serves the same count
        stats = conn.stats()
        assert stats["requests"] == 5 * len(threads)
