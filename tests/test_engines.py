"""Cross-engine differential tests.

Hypothesis-style randomized (seeded) queries and databases asserting
that the Python and numpy engines are observationally identical: same
answer counts, same ``answer_at`` results, same enumeration order, same
relational-operator outputs.  Skipped numpy legs degrade to a Python
self-consistency check when numpy is unavailable.
"""

from __future__ import annotations

import itertools
import random
import zlib

import pytest

from repro import (
    Database,
    OutOfBoundsError,
    Relation,
    VariableOrder,
    parse_query,
)
from repro.core.access import DirectAccess
from repro.data.columnar import numpy_available
from repro.engine import (
    available_engines,
    get_engine,
    set_engine,
    use_engine,
)
from repro.errors import EngineError
from repro.joins.generic_join import evaluate, generic_join
from repro.joins.operators import Table
from repro.session.artifacts import ArtifactStore

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

QUERIES = [
    "Q(x, y, z) :- R(x, y), S(y, z)",
    "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
    "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)",
    "Q(x, y) :- R(x, y), S(y, x)",
    "Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w), U(w, x)",
    "Q(x, y) :- R(x, x, y)",
    "Q(x, y, z) :- R(x, y), R(y, z)",
    "Q(u, v, w) :- R(u), S(u, v), T(u, v, w)",
]


def random_database(query, rng, max_rows=14, max_value=5):
    relations = {}
    for symbol in query.relation_symbols:
        arity = query.arity_of(symbol)
        tuples = {
            tuple(rng.randint(0, max_value) for _ in range(arity))
            for _ in range(rng.randint(0, max_rows))
        }
        relations[symbol] = Relation(tuples, arity=arity)
    return Database(relations)


def direct_access_observation(query, order, database, projected):
    access = DirectAccess(query, order, database, projected=projected)
    count = len(access)
    enumeration = [access.tuple_at(i) for i in range(count)]
    batch = access.answers_at(range(count))
    sample = (
        access.answers_at([-1, 0, count // 2]) if count else []
    )
    return count, enumeration, batch, sample


@needs_numpy
@pytest.mark.parametrize("query_text", QUERIES)
def test_direct_access_differential(query_text):
    """len / answer_at / enumeration order agree across engines."""
    query = parse_query(query_text)
    rng = random.Random(zlib.crc32(query_text.encode()))
    for _ in range(8):
        database = random_database(query, rng)
        order = VariableOrder(
            rng.choice(list(itertools.permutations(query.variables)))
        )
        observations = {}
        for engine in ("python", "numpy"):
            with use_engine(engine):
                observations[engine] = direct_access_observation(
                    query, order, database, frozenset()
                )
        assert observations["python"] == observations["numpy"], (
            f"engines disagree on {query_text} / {list(order)}"
        )


@needs_numpy
@pytest.mark.parametrize("query_text", QUERIES)
def test_session_differential(query_text):
    """Session-served access (cold and warm) agrees across engines.

    Each engine gets its own store over the same database; every
    request is served twice — the repeat must come from the cache and
    still observe identical answers, so this differentially tests the
    cache layers, not just the engines.
    """
    query = parse_query(query_text)
    rng = random.Random(zlib.crc32(b"session:" + query_text.encode()))
    database = random_database(query, rng)
    orders = [
        VariableOrder(
            rng.choice(list(itertools.permutations(query.variables)))
        )
        for _ in range(3)
    ]
    observations = {}
    for engine in ("python", "numpy"):
        store = ArtifactStore(database, engine=engine)
        trace = []
        for order in orders + orders:  # second half: warm requests
            access = store.access(query, order=order)
            trace.append(
                (
                    len(access),
                    [access.tuple_at(i) for i in range(len(access))],
                    access.answers_at(range(len(access))),
                )
            )
        trace.append(store.stats.bag_materializations)
        observations[engine] = trace
    assert observations["python"] == observations["numpy"], (
        f"sessions disagree on {query_text}"
    )


@needs_numpy
def test_direct_access_projected_differential():
    """Theorem 50 projected suffixes agree across engines."""
    query = parse_query("Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)")
    order = VariableOrder(["x", "y", "z", "w"])
    rng = random.Random(99)
    for _ in range(10):
        database = random_database(query, rng, max_value=3)
        for projected in ({"w"}, {"z", "w"}, {"y", "z", "w"}):
            observations = {}
            for engine in ("python", "numpy"):
                with use_engine(engine):
                    observations[engine] = direct_access_observation(
                        query, order, database, frozenset(projected)
                    )
            assert observations["python"] == observations["numpy"]


@needs_numpy
def test_table_operators_differential():
    """project / select / semijoin / join / sort agree across engines."""
    rng = random.Random(2022)
    names = ["a", "b", "c", "d"]
    for trial in range(150):
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        schema1, schema2 = rng.sample(names, k1), rng.sample(names, k2)
        top = rng.randint(0, 5)
        rows1 = {
            tuple(rng.randint(0, top) for _ in range(k1))
            for _ in range(rng.randint(0, 12))
        }
        rows2 = {
            tuple(rng.randint(0, top) for _ in range(k2))
            for _ in range(rng.randint(0, 12))
        }
        onto = tuple(rng.sample(schema1, rng.randint(1, k1)))
        constant = rng.randint(0, top)
        observed = {}
        for engine in ("python", "numpy"):
            with use_engine(engine):
                left = Table(schema1, set(rows1))
                right = Table(schema2, set(rows2))
                observed[engine] = (
                    left.semijoin(right).rows,
                    left.natural_join(right).rows,
                    left.project(onto).rows,
                    left.select({schema1[0]: constant}).rows,
                    tuple(left.sorted_rows()),
                )
        assert observed["python"] == observed["numpy"], (
            f"trial {trial}: {schema1} {sorted(rows1)} vs "
            f"{schema2} {sorted(rows2)}"
        )


@needs_numpy
def test_generic_join_differential():
    """Worst-case-optimal join materialization agrees across engines."""
    rng = random.Random(7)
    for _ in range(40):
        top = rng.randint(1, 5)
        tables_spec = [
            (("x", "y"), rng.randint(0, 15)),
            (("y", "z"), rng.randint(0, 15)),
            (("z", "x"), rng.randint(0, 15)),
        ]
        rows = [
            {
                (rng.randint(0, top), rng.randint(0, top))
                for _ in range(n)
            }
            for _, n in tables_spec
        ]
        results = {}
        for engine in ("python", "numpy"):
            with use_engine(engine):
                tables = [
                    Table(schema, set(r))
                    for (schema, _), r in zip(tables_spec, rows)
                ]
                results[engine] = generic_join(
                    tables, ["x", "y", "z"]
                ).rows
        assert results["python"] == results["numpy"]


@needs_numpy
def test_numpy_engine_falls_back_on_incomparable_domains():
    """Cross-column str/int domains can't be dictionary-encoded in one
    order; the numpy engine must degrade to Python semantics, not crash."""
    query = parse_query("Q(x, y) :- R(x, y), S(y)")
    database = Database(
        {
            "R": Relation({(1, "u"), (2, "v"), (3, "u")}, arity=2),
            "S": Relation({("u",)}, arity=1),
        }
    )
    order = VariableOrder(["x", "y"])
    observations = {}
    for engine in ("python", "numpy"):
        with use_engine(engine):
            observations[engine] = direct_access_observation(
                query, order, database, frozenset()
            )
    assert observations["python"] == observations["numpy"]
    assert observations["python"][0] == 2


@needs_numpy
def test_evaluate_differential_matches_python():
    query = parse_query("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)")
    rng = random.Random(5)
    database = random_database(query, rng, max_rows=25, max_value=6)
    with use_engine("python"):
        expected = evaluate(query, database)
    with use_engine("numpy"):
        assert evaluate(query, database) == expected


def test_answers_at_matches_answer_at_per_engine():
    query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
    database = Database(
        {
            "R": {(1, 2), (3, 2), (3, 4)},
            "S": {(2, 7), (2, 9), (4, 1)},
        }
    )
    order = VariableOrder(["x", "y", "z"])
    for engine in available_engines():
        with use_engine(engine):
            access = DirectAccess(query, order, database)
            everything = access.answers_at(range(len(access)))
            assert everything == [
                access.answer_at(i) for i in range(len(access))
            ]
            assert access.answers_at([]) == []
            assert access.answers_at([-1]) == [
                access.answer_at(len(access) - 1)
            ]
            with pytest.raises(OutOfBoundsError):
                access.answers_at([0, len(access)])
            with pytest.raises(OutOfBoundsError):
                access.answers_at([-len(access) - 1])


def test_engine_registry():
    assert "python" in available_engines()
    previous = get_engine()
    try:
        engine = set_engine("python")
        assert engine.name == "python"
        assert get_engine() is engine
        with pytest.raises(EngineError):
            set_engine("no-such-engine")
        if numpy_available():
            with use_engine("numpy") as numpy_engine:
                assert numpy_engine.name == "numpy"
                assert get_engine() is numpy_engine
            assert get_engine() is engine
    finally:
        set_engine(previous)


def test_direct_access_reports_engine_name():
    query = parse_query("Q(x, y) :- R(x, y)")
    database = Database({"R": {(1, 2)}})
    for engine in available_engines():
        with use_engine(engine):
            access = DirectAccess(
                query, VariableOrder(["x", "y"]), database
            )
        assert access.engine_name == engine
        # Built structures keep working after the engine is switched.
        assert access.tuple_at(0) == (1, 2)
        assert access.answers_at([0]) == [{"x": 1, "y": 2}]


@needs_numpy
def test_large_counts_do_not_overflow():
    """Weights beyond int64 must widen to Python big ints, not wrap."""
    # A cross product of unary relations: 500**7 ≈ 7.8e18 answers sits
    # between the engine's 2**62 overflow guard and the 2**63 - 1 cap of
    # the ``len`` protocol, so the numpy engine must widen the affected
    # bags' weight columns (batch access still walks via Python).
    variables = [f"v{i}" for i in range(7)]
    atoms = ", ".join(f"R{i}({v})" for i, v in enumerate(variables))
    query = parse_query(f"Q({', '.join(variables)}) :- {atoms}")
    database = Database(
        {
            f"R{i}": Relation(
                {(j,) for j in range(500)}, arity=1
            )
            for i in range(7)
        }
    )
    order = VariableOrder(variables)
    expected_total = 500**7  # > 2**62, below the len() cap
    observations = {}
    for engine in ("python", "numpy"):
        with use_engine(engine):
            access = DirectAccess(query, order, database)
            observations[engine] = (
                len(access),
                access.tuple_at(0),
                access.tuple_at(expected_total - 1),
                access.answers_at([0, expected_total - 1]),
            )
    assert observations["python"][0] == expected_total
    assert observations["python"] == observations["numpy"]


@needs_numpy
def test_overflow_weights_stay_vectorized():
    """Regression pin just above the int64 overflow threshold: the
    counting-forest build must widen its weight column (object dtype)
    instead of silently dropping to the per-bag Python fallback —
    every bag of the numpy-built forest keeps its columnar mirror."""
    import numpy as np

    # A complete-bipartite path: subtree totals multiply level by
    # level (m, m**2, ..., m**6), so the top bags' weight bounds cross
    # the 2**62 ≈ 4.6e18 guard while the total, 500**7 ≈ 7.8e18,
    # stays below the 2**63 - 1 cap of the ``len`` protocol.  Unlike
    # the cross-product test above, the bags *nest*, which is what
    # makes the per-bag weight arithmetic itself overflow-prone.
    m, levels = 500, 7
    variables = [f"v{i}" for i in range(levels)]
    atoms = ", ".join(
        f"R{i}({variables[i]}, {variables[i + 1]})"
        for i in range(levels - 1)
    )
    query = parse_query(f"Q({', '.join(variables)}) :- {atoms}")
    pairs = {(a, b) for a in range(m) for b in range(m)}
    database = Database(
        {
            f"R{i}": Relation(set(pairs), arity=2)
            for i in range(levels - 1)
        }
    )
    with use_engine("numpy"):
        access = DirectAccess(
            query, VariableOrder(variables), database
        )
    total = m**levels
    assert total > 2**62  # really sits above the overflow guard
    assert len(access) == total
    # The pin: no bag fell back to the Python build (a fallback leaves
    # aux=None), and the widened bags really are object-dtype.
    auxes = [index.aux for index in access._indexes]
    assert all(aux is not None for aux in auxes)
    assert any(
        aux.weights_flat.dtype == np.dtype(object) for aux in auxes
    )
    # ... and the arithmetic is exact at both ends.
    top = tuple([m - 1] * levels)
    assert access.tuple_at(0) == tuple([0] * levels)
    assert access.tuple_at(total - 1) == top
    assert access.rank_of(top) == total - 1


@needs_numpy
def test_object_dtype_child_propagates_to_int64_parent():
    """Regression: a parent bag whose own bound fits int64 must widen
    anyway when a child's totals are object dtype — multiplying object
    totals into an int64 weight column is a numpy casting error."""
    import numpy as np

    from repro.engine.numpy_engine import NumpyEngine
    from repro.joins.operators import Table

    engine = NumpyEngine()
    child_table = Table(("y", "z"), {(1, 2), (1, 3), (2, 2)})
    child = engine.build_bag_index(child_table, [], False)
    # Simulate a child built under the overflow guard (its bound is
    # conservative; after a selective join its exact totals can be
    # small while the dtype stays object).
    child.aux.weights_flat = child.aux.weights_flat.astype(object)
    child.aux.totals = child.aux.totals.astype(object)
    child.aux.cum_before = child.aux.cum_before.astype(object)
    parent_table = Table(("x", "y"), {(0, 1), (0, 2), (5, 1)})
    parent = engine.build_bag_index(parent_table, [(child, [1])], False)
    assert parent.aux is not None
    assert parent.aux.weights_flat.dtype == np.dtype(object)
    assert parent.totals[(0,)] == 3  # y=1 weighs 2, y=2 weighs 1
    assert parent.totals[(5,)] == 2


# -- live mutations (cross-engine differential) ---------------------------


def random_delta(rng, database, max_value=9):
    """A random per-relation insert/delete workload step."""
    from repro import Delta

    inserts: dict = {}
    deletes: dict = {}
    for name, relation in database.relations.items():
        if rng.random() < 0.4:
            continue
        inserts[name] = {
            tuple(
                rng.randint(0, max_value)
                for _ in range(relation.arity)
            )
            for _ in range(rng.randint(0, 3))
        }
        existing = sorted(relation.tuples)
        if existing and rng.random() < 0.5:
            deletes[name] = set(
                rng.sample(
                    existing,
                    rng.randint(1, min(3, len(existing))),
                )
            )
    return Delta(inserts=inserts, deletes=deletes)


@needs_numpy
@pytest.mark.parametrize("query_text", QUERIES[:5])
def test_mutation_differential(query_text):
    """Random insert/delete workloads: the incremental path must equal
    a from-scratch database, per engine and across engines."""
    from repro import connect

    query = parse_query(query_text)
    rng = random.Random(zlib.crc32(b"delta:" + query_text.encode()))
    base = random_database(query, rng)
    order = VariableOrder(
        rng.choice(list(itertools.permutations(query.variables)))
    )
    connections = {
        engine: connect(
            Database(
                {
                    name: set(rel.tuples)
                    for name, rel in base.relations.items()
                }
            ),
            engine=engine,
        )
        for engine in ("python", "numpy")
    }
    database = base
    for step in range(6):
        delta = random_delta(rng, database, max_value=9 + step)
        database = database.apply(delta)
        observed = {}
        for engine, conn in connections.items():
            conn.apply(delta)
            observed[engine] = list(conn.prepare(query, order=order))
        with use_engine("python"):
            scratch = list(
                DirectAccess(query, order, database).answers_at(
                    range(
                        len(DirectAccess(query, order, database))
                    )
                )
            )
        scratch_rows = [
            tuple(answer[v] for v in order) for answer in scratch
        ]
        assert observed["python"] == scratch_rows, (
            f"incremental != rebuild on {query_text} step {step}"
        )
        assert observed["python"] == observed["numpy"], (
            f"engines disagree on {query_text} step {step}"
        )


@needs_numpy
def test_dictionary_extension_never_renumbers_existing_codes():
    """Property: however a random append-only workload grows the
    domain, the shared dictionary's existing codes are stable and the
    mirrors keep sharing it by identity."""
    from repro import Delta, EncodedDatabase

    rng = random.Random(99)
    database = EncodedDatabase(
        {"R": {(1, 2), (3, 2)}, "S": {(2, 7)}}
    )
    ceiling = 10  # new values always above everything seen: appendable
    for _ in range(15):
        ceiling += rng.randint(1, 5)
        name = rng.choice(["R", "S"])
        arity = database[name].arity
        rows = {
            tuple(
                rng.randint(ceiling - 1, ceiling)
                for _ in range(arity)
            )
            for _ in range(rng.randint(1, 2))
        }
        snapshot = dict(database.shared_dictionary._code)
        out = database.apply(Delta(inserts={name: rows}))
        assert out.encoded_incrementally
        assert out.shared_dictionary is database.shared_dictionary
        for value, code in snapshot.items():
            assert out.shared_dictionary._code[value] == code
        for rel in out.relations.values():
            assert (
                rel._columnar.dictionary is out.shared_dictionary
            )
        database = out


# -- AnswerView Sequence / round-trip laws (cross-engine) -----------------


class TestSequenceLaws:
    """Property tests for the facade's Sequence semantics.

    For random queries/databases, on every available engine:
    ``view[view.rank(t)] == t`` round-trips for all answers,
    ``list(view[a:b]) == list(view)[a:b]`` for slices including
    negative indices and steps, ``reversed(view)`` agrees with the
    sorted answer list, and the engines observe identical views.
    """

    @staticmethod
    def slices_for(n: int) -> list[slice]:
        return [
            slice(None),
            slice(1, n),
            slice(None, None, 2),
            slice(None, None, -1),
            slice(-3, None),
            slice(n, None, -2),
            slice(2, -1),
            slice(-1, 0, -3),
            slice(n + 5, None),
            slice(None, n // 2),
        ]

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_view_laws(self, query_text):
        import collections.abc

        from repro import NotAnAnswerError, connect
        from repro.facade import AnswerView
        from tests.conftest import lex_answers

        query = parse_query(query_text)
        rng = random.Random(zlib.crc32(b"laws:" + query_text.encode()))
        database = random_database(query, rng)
        order = VariableOrder(
            rng.choice(list(itertools.permutations(query.variables)))
        )
        per_engine = {}
        for engine in available_engines():
            view = connect(database, engine=engine).prepare(
                query, order=order
            )
            assert isinstance(view, collections.abc.Sequence)
            full = list(view)
            n = len(full)
            # The view is the lexicographically sorted answer list ...
            assert full == lex_answers(query, database, order)
            # ... reversal agrees with it ...
            assert list(reversed(view)) == full[::-1]
            # ... slices (negative / stepped / nested) are lazy views
            # observing exactly Python's slice semantics ...
            for sl in self.slices_for(n):
                sub = view[sl]
                assert isinstance(sub, AnswerView)
                assert list(sub) == full[sl]
                assert list(reversed(sub)) == full[sl][::-1]
                half = slice(1, None, 2)
                assert list(sub[half]) == full[sl][half]
            # ... ranks round-trip for every answer ...
            assert view.ranks(full) == list(range(n))
            for index, answer in enumerate(full):
                assert view.rank(answer) == index
                assert view[view.rank(answer)] == answer
                assert answer in view
            # ... and non-answers are cleanly rejected.
            fake = tuple(99 for _ in order)
            assert fake not in view
            if n:
                with pytest.raises(NotAnAnswerError):
                    view.rank(fake)
            per_engine[engine] = full
        reference = per_engine["python"]
        for engine, full in per_engine.items():
            assert full == reference, f"{engine} view disagrees"


# -- point reads: the scalar descent behind a batch of one ----------------


def _point_read_cases():
    """``(label, query, order, database, projected)`` over catalog
    queries, self-joins and projected suffixes, on small random data."""
    from repro.query.catalog import (
        example5_order,
        example5_query,
        four_cycle_query,
        path_query,
        running_selfjoin_query,
        star_good_order,
        star_query,
        triangle_query,
    )
    from tests.conftest import random_database_for

    rng = random.Random(2626)
    catalog = [
        ("path3", path_query(3), None),
        ("triangle", triangle_query(), None),
        ("four-cycle", four_cycle_query(), None),
        ("example5", example5_query(), example5_order()),
        ("star3", star_query(3), star_good_order(3)),
        ("selfjoin", running_selfjoin_query(), None),
        ("self-path", parse_query("Q(x, y, z) :- R(x, y), R(y, z)"), None),
        ("self-repeat", parse_query("Q(x, y) :- R(x, x, y)"), None),
    ]
    for label, query, order in catalog:
        order = order or VariableOrder(list(query.variables))
        database = random_database_for(query, rng, rows=14, domain=4)
        yield label, query, order, database, frozenset()
    query = parse_query("Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)")
    order = VariableOrder(["x", "y", "z", "w"])
    database = random_database(query, rng, max_value=3)
    for projected in ({"w"}, {"z", "w"}, {"y", "z", "w"}):
        label = "projected-" + "".join(sorted(projected))
        yield label, query, order, database, frozenset(projected)


def _non_answers(access, answers):
    """Rows that are no answer: wrong arity, absent values, unknown
    interfaces, unhashable and incomparable values."""
    width = len(access.free_variables)
    rows = [(), (0,) * (width + 1), (10**6,) * width]
    if width:
        rows += [([1],) + (0,) * (width - 1), ("a",) * width]
    for answer in answers[:5]:
        for level in range(width):
            for replacement in (10**6, [1], "a", -1):
                row = list(answer)
                row[level] = replacement
                rows.append(tuple(row))
    # Every in-domain combination that is not an answer (unknown
    # interfaces, values absent under the reached group).
    taken = set(answers)
    rows += [
        row
        for row in itertools.product(range(4), repeat=width)
        if row not in taken
    ][:40]
    return rows


def _assert_point_equals_batch(numpy_access, python_access, indices, rows):
    for i in indices:
        point = numpy_access.answers_at([i])
        assert point == [numpy_access.answers_at([i, i])[0]]
        assert point == python_access.answers_at([i])
    for row in rows:
        point = numpy_access.ranks_of([row])
        assert point == numpy_access.ranks_of([row, row])[:1]
        assert point == python_access.ranks_of([row])


@needs_numpy
@pytest.mark.parametrize(
    "case", list(_point_read_cases()), ids=lambda case: case[0]
)
def test_point_read_equals_batch_read(case):
    """A batch of one (scalar descent) answers exactly like a batch of
    two (vector kernel) and like the Python engine, on every index,
    every answer and a spread of non-answers."""
    _label, query, order, database, projected = case
    accesses = {}
    for engine in ("python", "numpy"):
        with use_engine(engine):
            accesses[engine] = DirectAccess(
                query, order, database, projected=projected
            )
    numpy_access, python_access = accesses["numpy"], accesses["python"]
    count = len(numpy_access)
    assert count, "every case has answers"
    answers = python_access.tuples_at(range(count))
    _assert_point_equals_batch(
        numpy_access,
        python_access,
        [*range(count), -1],
        answers + _non_answers(numpy_access, answers),
    )


@needs_numpy
def test_point_read_equals_batch_read_on_empty_view():
    query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
    database = Database({"R": {(1, 2)}, "S": {(3, 4)}})
    with use_engine("numpy"):
        access = DirectAccess(query, VariableOrder(["x", "y", "z"]), database)
    assert len(access) == 0
    for row in [(1, 2, 4), (), ([1], 2, 3), ("a", "b", "c")]:
        assert access.ranks_of([row]) == [None]
        assert access.ranks_of([row, row]) == [None, None]


@needs_numpy
def test_point_read_equals_batch_read_over_object_dtype_bags():
    """Above the int64 guard the vector kernel hands batches to the
    Python walk; a point read walks the widened (object-dtype) groups
    itself and must agree with both."""
    import numpy as np

    # A complete-bipartite path, 4 values wide and 31 variables long:
    # 4**31 = 2**62 answers, so the top bags' weights widen.
    m, levels = 4, 31
    variables = [f"v{i}" for i in range(levels)]
    atoms = ", ".join(
        f"R{i}({variables[i]}, {variables[i + 1]})"
        for i in range(levels - 1)
    )
    query = parse_query(f"Q({', '.join(variables)}) :- {atoms}")
    pairs = {(a, b) for a in range(m) for b in range(m)}
    database = Database(
        {
            f"R{i}": Relation(set(pairs), arity=2)
            for i in range(levels - 1)
        }
    )
    order = VariableOrder(variables)
    accesses = {}
    for engine in ("python", "numpy"):
        with use_engine(engine):
            accesses[engine] = DirectAccess(query, order, database)
    numpy_access, python_access = accesses["numpy"], accesses["python"]
    assert any(
        index.aux.weights_flat.dtype == np.dtype(object)
        for index in numpy_access._indexes
    )
    total = len(numpy_access)
    rng = random.Random(7)
    indices = [0, 1, total // 2, total - 1, -1] + [
        rng.randrange(total) for _ in range(20)
    ]
    answers = python_access.tuples_at([i % total for i in indices])
    _assert_point_equals_batch(
        numpy_access,
        python_access,
        indices,
        answers
        + [(3,) * (levels - 1) + (m,), (0,) * (levels - 1), ("a",) * levels],
    )


class _CountingNumpy:
    """``numpy`` with a call counter on ``searchsorted``."""

    def __init__(self, numpy):
        self._numpy = numpy
        self.searchsorted_calls = 0

    def __getattr__(self, name):
        return getattr(self._numpy, name)

    def searchsorted(self, *args, **kwargs):
        self.searchsorted_calls += 1
        return self._numpy.searchsorted(*args, **kwargs)


@needs_numpy
def test_point_reads_never_enter_the_vector_kernel(monkeypatch):
    """Tripwire: a warm ``view[i]`` / ``view[-1]`` / ``view.rank(t)``
    is one scalar descent — zero ``searchsorted`` calls — while a page
    still takes the vector kernel, and the per-batch counters move by
    exactly one per point read."""
    import numpy as np

    from repro import connect
    from repro.engine import numpy_engine

    database = {
        "R": {(i, i % 13) for i in range(400)},
        "S": {(j, k) for j in range(13) for k in range(3)},
    }
    view = connect(database, engine="numpy").prepare(
        "Q(x, y, z) :- R(x, y), S(y, z)", order=["y", "x", "z"]
    )
    answer = view[len(view) // 3]
    view[-1], view.rank(answer), view.page(0, 20)  # warm every path
    shim = _CountingNumpy(np)
    monkeypatch.setattr(numpy_engine, "np", shim)

    reads = [
        lambda: view[7],
        lambda: view[-1],
        lambda: view.rank(answer),
    ]
    for read in reads:
        before = view.op_counters()
        read()
        after = view.op_counters()
        assert shim.searchsorted_calls == 0
        moved = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in ("access_batches", "rank_batches")
        }
        assert sum(moved.values()) == 1, moved
    assert view.page(1, 20) == [view[i] for i in range(20, 40)]
    assert shim.searchsorted_calls >= 1


@needs_numpy
def test_concurrent_first_touch_of_lazy_groups():
    """Handler threads share one forest: four threads decoding the same
    fresh groups at once all answer like the Python engine, raise no
    ``KeyError`` and are handed one and the same decoded triple."""
    import sys
    import threading

    from repro import connect

    database = {
        "R": {(i, i % 17) for i in range(300)},
        "S": {(j, k) for j in range(17) for k in range(j % 5 + 1)},
    }
    query, order = "Q(x, y, z) :- R(x, y), S(y, z)", ["y", "z", "x"]
    expected = list(
        connect(database, engine="python").prepare(query, order=order)
    )
    workers = 4

    def race(view):
        """Per thread: its answers and the triple each lookup got."""
        indexes = view._access._indexes
        # Each thread mixes point reads with direct group lookups in
        # its own order, so first touches race both ways.
        tasks = [("read", i) for i in range(len(expected))] + [
            ("group", level, interface)
            for level, index in enumerate(indexes)
            for interface in index.totals
        ]
        barrier = threading.Barrier(workers)
        results: list = [None] * workers
        errors: list = []

        def reader(slot):
            try:
                mine = list(tasks)
                random.Random(slot).shuffle(mine)
                got, handed = {}, {}
                barrier.wait()
                for task in mine:
                    if task[0] == "read":
                        got[task[1]] = view[task[1]]
                    else:
                        _, level, interface = task
                        handed[level, interface] = indexes[
                            level
                        ].groups[interface]
                results[slot] = (
                    [got[i] for i in range(len(expected))],
                    handed,
                )
            except BaseException as error:  # noqa: BLE001 -- asserted below
                errors.append(error)

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(8):
            view = connect(database, engine="numpy").prepare(
                query, order=order
            )
            results = race(view)
            assert all(answers == expected for answers, _ in results)
            first = results[0][1]
            for key, triple in first.items():
                assert all(
                    handed[key] is triple for _, handed in results[1:]
                ), key
    finally:
        sys.setswitchinterval(interval)
