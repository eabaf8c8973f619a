"""Incremental maintenance under live inserts/deletes.

The acceptance surface of the live-updates PR, bottom-up:

* :class:`~repro.data.delta.Delta` — normalization and validation;
* ``Database.apply`` / ``EncodedDatabase.apply`` — structural sharing
  and code-stable in-place dictionary extension (full re-encode only
  when order-preservation forces it);
* the versioned :class:`~repro.session.ArtifactStore` — a delta
  invalidates exactly the artifacts whose decomposition touches a
  mutated relation; untouched decompositions are *carried* and served
  warm (generation counters prove zero rebuilds);
* the facade — ``Connection.apply`` bumps ``db_version`` for
  effective deltas while version-pinned views keep answering from
  retained MVCC snapshots; :class:`~repro.errors.StaleViewError` is
  reserved for evicted snapshots;
* the wire — ``insert`` / ``delete`` / ``apply`` / ``db_version``
  ops, snapshot-pinned reads with eviction replay, batched ranks,
  and the keep-alive client pool.

CI runs this module under both engines.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import repro
from repro import (
    Database,
    Delta,
    EncodedDatabase,
    StaleViewError,
    connect,
    parse_query,
)
from repro.chaos.deltas import (
    delta_sequence,
    random_delta,
    shrink_deltas,
    uniform_draw,
)
from repro.data.columnar import numpy_available
from repro.errors import DatabaseError
from repro.session import ArtifactStore
from repro.session.protocol import SessionRequest, execute

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

PATH = "Q(x, y, z) :- R(x, y), S(y, z)"
DISJOINT = "P(u, v, w) :- T(u, v), U(v, w)"
RELATIONS = {
    "R": {(1, 2), (3, 2), (3, 4)},
    "S": {(2, 7), (2, 9), (4, 1)},
    "T": {(1, 1), (2, 1)},
    "U": {(1, 5)},
}


def fresh_database() -> Database:
    return Database({name: set(rows) for name, rows in RELATIONS.items()})


class TestDelta:
    def test_normalization_and_touched(self):
        delta = Delta(
            inserts={"R": [[1, 2], (3, 9)], "S": []},
            deletes={"T": {(1, 1)}},
        )
        assert delta.inserts == {"R": frozenset({(1, 2), (3, 9)})}
        assert delta.deletes == {"T": frozenset({(1, 1)})}
        assert delta.touched == {"R", "T"}
        assert delta.size() == 3
        assert not delta.is_empty
        assert Delta().is_empty

    def test_delete_then_insert_within_one_delta(self):
        delta = Delta(inserts={"R": {(1, 2)}}, deletes={"R": {(1, 2)}})
        assert delta.apply_to("R", {(1, 2), (5, 5)}) == {
            (1, 2),
            (5, 5),
        }

    def test_coerce_accepts_mapping_spelling(self):
        delta = Delta.coerce({"inserts": {"R": {(7, 7)}}})
        assert delta.inserts == {"R": frozenset({(7, 7)})}
        with pytest.raises(DatabaseError):
            Delta.coerce({"R": {(7, 7)}})

    def test_validate_unknown_relation_and_arity(self):
        database = fresh_database()
        with pytest.raises(DatabaseError):
            Delta(inserts={"Nope": {(1,)}}).validate_against(database)
        with pytest.raises(DatabaseError):
            Delta(inserts={"R": {(1, 2, 3)}}).validate_against(database)

    def test_equality_and_repr(self):
        assert Delta(inserts={"R": {(1, 2)}}) == Delta(
            inserts={"R": [(1, 2)]}
        )
        assert "inserts" in repr(Delta(inserts={"R": {(1, 2)}}))
        assert "empty" in repr(Delta())


class TestDatabaseApply:
    def test_untouched_relations_shared_by_object(self):
        database = fresh_database()
        out = database.apply(Delta(inserts={"R": {(9, 9)}}))
        assert out["S"] is database["S"]
        assert out["R"] is not database["R"]
        assert (9, 9) in out["R"].tuples
        assert (9, 9) not in database["R"].tuples  # snapshot intact

    def test_apply_can_empty_a_relation(self):
        database = Database({"R": {(1, 2)}})
        out = database.apply(Delta(deletes={"R": {(1, 2)}}))
        assert len(out["R"]) == 0 and out["R"].arity == 2

    def test_apply_rejects_bad_deltas_without_side_effects(self):
        database = fresh_database()
        with pytest.raises(DatabaseError):
            database.apply(Delta(inserts={"R": {(1,)}}))
        assert len(database["R"]) == 3


@needs_numpy
class TestEncodedDatabaseApply:
    def test_append_only_values_extend_in_place(self):
        database = EncodedDatabase(
            {"R": {(1, 2), (3, 2)}, "S": {(2, 7)}}
        )
        dictionary = database.shared_dictionary
        codes_before = dict(dictionary._code)
        out = database.apply(Delta(inserts={"R": {(8, 9)}}))
        assert out.encoded_incrementally
        assert out.shared_dictionary is dictionary
        # Code-stable: no existing value was renumbered.
        for value, code in codes_before.items():
            assert out.shared_dictionary._code[value] == code
        # Untouched relations keep their mirrors by identity.
        assert out["S"]._columnar is database["S"]._columnar
        assert out["R"]._columnar.dictionary is dictionary

    def test_mid_order_value_forces_full_reencode(self):
        database = EncodedDatabase({"R": {(10, 20)}, "S": {(20, 30)}})
        out = database.apply(Delta(inserts={"R": {(15, 20)}}))
        assert not out.encoded_incrementally
        assert out.shared_dictionary is not database.shared_dictionary
        assert sorted(out["R"].tuples) == [(10, 20), (15, 20)]
        # The original database's encoding is untouched.
        assert database.shared_dictionary.code(15) == -1

    def test_deletes_are_always_incremental(self):
        database = EncodedDatabase({"R": {(1, 2), (3, 4)}, "S": {(2, 7)}})
        out = database.apply(Delta(deletes={"R": {(3, 4)}}))
        assert out.encoded_incrementally
        assert out.shared_dictionary is database.shared_dictionary
        assert sorted(out["R"].tuples) == [(1, 2)]

    def test_incremental_answers_equal_fresh_encode(self):
        """Property test over the shared generator
        (:mod:`repro.chaos.deltas`): after every prefix of a seeded
        delta sequence, incremental encoding must answer exactly like
        a from-scratch encode.  A failure is shrunk to the minimal
        delta sequence before being reported."""
        query = parse_query(PATH)
        base = {"R": {(1, 2), (3, 2)}, "S": {(2, 7), (2, 9)}}
        rng = random.Random(20260729)
        deltas = []
        database = EncodedDatabase(base)
        for step in range(12):
            delta = random_delta(rng, database, max_value=40 + step)
            deltas.append(delta)
            database = database.apply(delta)

        def diverges(sequence):
            current = EncodedDatabase(base)
            for delta in sequence:
                current = current.apply(delta)
                fresh = EncodedDatabase(
                    {
                        name: set(rel.tuples)
                        for name, rel in current.relations.items()
                    }
                )
                with repro.use_engine("numpy"):
                    incremental = connect(current).prepare(
                        query, order=["x", "y", "z"]
                    )
                    rebuilt = connect(fresh).prepare(
                        query, order=["x", "y", "z"]
                    )
                if list(incremental) != list(rebuilt):
                    return True
            return False

        if diverges(deltas):
            minimal = shrink_deltas(deltas, diverges)
            pytest.fail(
                "incremental encode diverges from fresh encode; "
                f"minimal failing sequence: {minimal!r}"
            )


def _str_draw(rng, max_value):
    return f"v{rng.randint(0, max_value):05d}"


def _tuple_draw(rng, max_value):
    return divmod(rng.randint(0, max_value), 7)


def _fraction_draw(rng, max_value):
    return Fraction(rng.randint(0, max_value), 7)


DOMAIN_DRAWS = {
    "int": uniform_draw,
    "str": _str_draw,
    "tuple": _tuple_draw,
    "fraction": _fraction_draw,
}


def assert_caches_equal_rebuild(database):
    """Every cache a relation carries equals its from-scratch value:
    the mirror is the encode of the sorted tuples (stored sorted, one
    shared dictionary), the sorted list is ``sorted(tuples)``."""
    import numpy as np

    from repro.data.columnar import ColumnarTable

    dictionary = database.shared_dictionary
    assert dictionary is not None
    assert dictionary.values == sorted(set(dictionary.values))
    assert set(dictionary.values) >= database.domain()
    for name, relation in database.relations.items():
        rows = sorted(relation.tuples)
        mirror = relation._columnar
        assert mirror.dictionary is dictionary, name
        rebuilt = ColumnarTable.from_rows(rows, relation.arity, dictionary)
        assert mirror.codes.dtype == rebuilt.codes.dtype
        assert np.array_equal(mirror.codes, rebuilt.codes), name
        assert relation._sorted == rows, name


def freeze_version(database):
    """What a later apply must leave untouched on ``database``: mirror
    objects and their contents, the dictionary's identity and the
    codes it had handed out, the sorted lists."""
    from repro.data.columnar import common_dictionary

    dictionary = common_dictionary(database.relations)
    return (
        database,
        dictionary,
        None if dictionary is None else list(dictionary.values),
        {
            name: (
                rel,
                rel._columnar,
                None if rel._columnar is None else rel._columnar.codes.copy(),
                rel._sorted,
                None if rel._sorted is None else list(rel._sorted),
                rel.tuples,
            )
            for name, rel in database.relations.items()
        },
    )


def assert_version_untouched(frozen):
    import numpy as np

    from repro.data.columnar import common_dictionary

    database, dictionary, values, relations = frozen
    assert common_dictionary(database.relations) is dictionary
    if dictionary is not None:
        # Extended in place at most: every code it had stays put.
        assert dictionary.values[: len(values)] == values
    for name, (rel, mirror, codes, rows, rows_copy, tuples) in (
        relations.items()
    ):
        assert database[name] is rel, name
        assert rel._columnar is mirror, name
        if mirror is not None:
            assert mirror.dictionary is dictionary
            assert np.array_equal(mirror.codes, codes), name
        assert rel._sorted is rows and rows == rows_copy, name
        assert rel.tuples == tuples


@needs_numpy
class TestMergeEqualsRebuild:
    """The write path moves every relation cache forward by the delta;
    the law is that nobody can tell: after each delta the carried
    mirror and sorted list equal a from-scratch rebuild, and the
    version the delta was applied to is left exactly as it was."""

    @staticmethod
    def warm(database):
        for relation in database.relations.values():
            relation.sorted_tuples()
        return database

    @pytest.mark.parametrize("batch", [1, 10, 1000])
    @pytest.mark.parametrize("domain", sorted(DOMAIN_DRAWS))
    def test_random_streams(self, domain, batch):
        draw = DOMAIN_DRAWS[domain]
        rng = random.Random(f"{domain}:{batch}")
        spread = 10 * max(1, batch // 10)
        database = self.warm(
            EncodedDatabase(
                {
                    name: {
                        tuple(draw(rng, spread) for _ in range(arity))
                        for _ in range(2 * batch)
                    }
                    for name, arity in (("R", 2), ("S", 2), ("T", 1))
                }
            )
        )
        assert_caches_equal_rebuild(database)
        paths = set()
        for step in range(12):
            # A growing range: values past the maximum extend the
            # dictionary in place, values inside it renumber.
            delta = random_delta(
                rng,
                database,
                max_value=spread * (step + 2),
                draw=draw,
                max_inserts=batch,
            )
            frozen = freeze_version(database)
            expected = {
                name: delta.apply_to(name, rel.tuples)
                for name, rel in database.relations.items()
            }
            new = database.apply(delta)
            assert {
                name: rel.tuples for name, rel in new.relations.items()
            } == expected
            assert_caches_equal_rebuild(new)
            assert_version_untouched(frozen)
            if new.encoded_incrementally:
                assert new.shared_dictionary is database.shared_dictionary
                for name in set(expected) - delta.touched:
                    assert new[name] is database[name]
            else:
                assert (
                    new.shared_dictionary
                    is not database.shared_dictionary
                )
            assert new.rows_encoded == delta.effective_against(
                database
            ).size()
            paths.add(new.encoded_incrementally)
            database = new
        assert paths == {True, False}, "stream missed a path"

    def test_deletes_down_to_empty_and_refill(self):
        database = self.warm(
            EncodedDatabase({"R": {(1, 2), (3, 4), (5, 6)}, "S": {(2, 7)}})
        )
        for row in [(3, 4), (1, 2), (5, 6)]:
            frozen = freeze_version(database)
            database = database.apply(Delta(deletes={"R": {row}}))
            assert database.encoded_incrementally
            assert_caches_equal_rebuild(database)
            assert_version_untouched(frozen)
        assert len(database["R"]) == 0
        assert database["R"]._columnar.codes.shape == (0, 2)
        database = database.apply(
            Delta(inserts={"R": {(9, 9), (0, 4), (4, 0)}})
        )
        assert sorted(database["R"].tuples) == [(0, 4), (4, 0), (9, 9)]
        assert_caches_equal_rebuild(database)

    def test_unminimised_deltas_through_apply(self):
        """``EncodedDatabase.apply`` takes deltas as callers write
        them: a row on both sides, a re-insert of a present row, a
        delete of an absent one.  The splice only ever sees the
        effective changes."""
        database = self.warm(
            EncodedDatabase({"R": {(1, 2), (3, 4)}, "S": {(2, 7)}})
        )
        for delta in (
            # present on both sides: stays, once
            Delta(inserts={"R": {(1, 2)}}, deletes={"R": {(1, 2)}}),
            # absent on both sides: ends up present
            Delta(inserts={"R": {(8, 8)}}, deletes={"R": {(8, 8)}}),
            # re-insert of a present row, delete of an absent one
            Delta(inserts={"R": {(3, 4)}}, deletes={"R": {(7, 7)}}),
            # a no-op next to a real change, interior value included
            Delta(
                inserts={"R": {(1, 2), (2, 5)}, "S": {(2, 7)}},
                deletes={"R": {(3, 4), (6, 6)}},
            ),
        ):
            frozen = freeze_version(database)
            expected = delta.apply_to("R", database["R"].tuples)
            database = database.apply(delta)
            assert database["R"].tuples == expected
            assert_caches_equal_rebuild(database)
            assert_version_untouched(frozen)

    def test_unorderable_value_falls_back_then_recovers(self):
        database = self.warm(
            EncodedDatabase({"R": {(1, 2), (3, 4)}, "S": {(2, 7)}})
        )
        frozen = freeze_version(database)
        mixed = database.apply(Delta(inserts={"R": {(5, "five")}}))
        assert not mixed.encoded_incrementally
        assert mixed.shared_dictionary is None
        assert mixed.rows_encoded == 0
        assert all(
            rel._columnar is None for rel in mixed.relations.values()
        )
        assert mixed["R"].tuples == {(1, 2), (3, 4), (5, "five")}
        assert mixed["S"] is not database["S"]  # private copies
        assert_version_untouched(frozen)
        # Orderable again: there is no mirror to carry, so this is the
        # from-scratch encoder (every row counted).
        healed = mixed.apply(Delta(deletes={"R": {(5, "five")}}))
        assert not healed.encoded_incrementally
        assert healed.rows_encoded == len(healed) == 3
        assert_caches_equal_rebuild(self.warm(healed))

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_pinned_view_survives_both_paths(self, engine):
        """The law ``test_full_reencode_leaves_old_snapshot_mirrors_
        intact`` states for one path, for both: a version's mirrors,
        dictionary identity and pinned view are the same before and
        after a later code-stable *or* renumbering apply."""
        conn = connect(
            {"R": {(10, 20), (30, 20)}, "S": {(20, 30), (20, 50)}},
            engine=engine,
        )
        order = ["x", "y", "z"]
        history = []
        for delta in (
            Delta(inserts={"R": {(70, 20)}}),  # past the maximum
            Delta(inserts={"R": {(15, 20)}}),  # inside the order
            Delta(deletes={"R": {(10, 20)}}),
            Delta(inserts={"S": {(20, 99)}, "R": {(12, 20)}}),
        ):
            view = conn.prepare(PATH, order=order)
            history.append(
                (view, list(view), freeze_version(conn.database))
            )
            conn.apply(delta)
            for view, rows, frozen in history:
                assert list(view) == rows
                assert [view.rank(row) for row in rows] == list(
                    range(len(rows))
                )
                assert_version_untouched(frozen)
        stats = conn.stats()["store"]
        assert stats["deltas_applied"] == 4
        if engine == "numpy":
            assert stats["full_reencodes"] == 2  # 15 and 12 land inside
            assert stats["rows_encoded"] == 5  # the deltas' own rows

    def test_python_engine_carries_the_sorted_list(self):
        """Under the reference engine the cache is the sorted list:
        it arrives on the new relation already merged, so
        ``encode_database`` finds nothing to sort."""
        conn = connect(fresh_database(), engine="python")
        deltas = delta_sequence(11, fresh_database(), 10)
        for delta in deltas:
            before = conn.database
            effective = delta.effective_against(before)
            expected = before.advanced_by(effective)
            for name in effective.touched:
                assert expected[name]._sorted == sorted(
                    expected[name].tuples
                )
            conn.apply(delta)
            for name, relation in conn.database.relations.items():
                assert relation._sorted == sorted(relation.tuples)


@needs_numpy
class TestRowsEncodedTripwire:
    """``apply`` cost is pinned by a count, not a stopwatch: the rows
    that reach the interpreter-level encoder are the delta's, however
    large the relation."""

    @pytest.mark.parametrize("rows", [10**3, 10**4, 10**5])
    def test_one_row_append_encodes_one_row(self, rows):
        store = ArtifactStore(
            {
                "R": {(i, 2 * i) for i in range(rows)},
                "S": {(i, i + 1) for i in range(100)},
            },
            engine="numpy",
        )
        assert store.cache_stats()["rows_encoded"] == 0
        store.apply(Delta(inserts={"R": {(rows, 2 * rows)}}))
        stats = store.cache_stats()
        assert stats["rows_encoded"] == 1
        assert stats["incremental_encodes"] == 1
        # Present row re-inserted, absent row deleted: nothing to do.
        store.apply(
            Delta(inserts={"R": {(0, 0)}}, deletes={"R": {(-1, -1)}})
        )
        stats = store.cache_stats()
        assert stats["rows_encoded"] == 1
        assert stats["noop_deltas"] == 1
        # A value below the maximum renumbers every code, and still
        # only its row is encoded.
        store.apply(Delta(inserts={"R": {(rows, -5)}}))
        stats = store.cache_stats()
        assert stats["rows_encoded"] == 2
        assert stats["full_reencodes"] == 1
        assert store.database["R"]._sorted is None  # never materialised


# (name, query, order, projected): the shapes the forest patch must
# handle, from the ι = 1 star to the ι = 3/2 triangle and the ι = 2
# bad-order star, with self-joins and a projected suffix.
STAR = "Q(x, y, z) :- R(x, y), S(x, z)"
XYZ = ["x", "y", "z"]
PATCH_CASES = {
    "star": (STAR, XYZ, ()),
    "path": (PATH, XYZ, ()),
    "self-join": ("Q(x, y, z) :- R(x, y), R(y, z)", XYZ, ()),
    "same-scope": ("Q(x, y) :- R(x, y), S(x, y), R(y, x)", ["x", "y"], ()),
    "projected": (PATH, XYZ, ("z",)),
    "triangle": ("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)", XYZ, ()),
    # The centre comes last: ι = 2.
    "bad-star": ("Q(x1, x2, z) :- R(x1, z), S(x2, z)", ["x1", "x2", "z"], ()),
}


def patch_case(name):
    query, order, projected = PATCH_CASES[name]
    return parse_query(query), order, frozenset(projected)


def freeze_access(access):
    """Copies of everything a later patch must leave as it was: each
    bag table's rows (codes under numpy), each bag index's arrays under
    numpy and its totals and groups dicts under Python."""
    tables = {}
    for item in access.preprocessing.bags:
        ct = item.table._columnar
        tables[item.bag.variable] = (
            item.table,
            frozenset(item.table.rows) if ct is None else ct.codes.copy(),
        )
    indexes = {}
    for variable, index in access.forest.indexes.items():
        if index.aux is None:
            indexes[variable] = (index, python_dicts(index))
        else:
            indexes[variable] = (index, aux_arrays(index.aux))
    return tables, indexes


def python_dicts(index):
    return dict(index.totals), {
        key: tuple(list(part) for part in group)
        for key, group in index.groups.items()
    }


def aux_arrays(aux):
    return [
        getattr(aux, name).copy()
        for name in (
            "group_codes", "offsets", "values_flat", "weights_flat",
            "cum_before", "totals",
        )
    ]


def assert_arrays_equal(left, right, label):
    import numpy as np

    for a, b in zip(left, right):
        assert a.dtype == b.dtype and a.shape == b.shape, label
        assert np.array_equal(a, b), label


def assert_frozen(frozen):
    tables, indexes = frozen
    for variable, (table, rows) in tables.items():
        ct = table._columnar
        if ct is None:
            assert frozenset(table.rows) == rows, variable
        else:
            assert_arrays_equal([ct.codes], [rows], variable)
    for variable, (index, frozen_index) in indexes.items():
        if index.aux is None:
            assert python_dicts(index) == frozen_index, variable
        else:
            assert_arrays_equal(aux_arrays(index.aux), frozen_index, variable)


def assert_equals_rebuild(access, engine, database):
    """The served structure is what a from-scratch build at its
    version gives: the same table rows (the same sorted code matrix
    under numpy) and the same bag index: its arrays under numpy, its
    totals and groups dicts under Python."""
    from repro.core.access import DirectAccess

    with repro.use_engine(engine):
        rebuilt = DirectAccess(
            access.query, access.order, database, access.projected
        )
    for served, fresh in zip(
        access.preprocessing.bags, rebuilt.preprocessing.bags
    ):
        variable = served.bag.variable
        mine, theirs = served.table._columnar, fresh.table._columnar
        if mine is None or theirs is None:
            assert served.table.rows == fresh.table.rows, variable
        else:
            assert mine.dictionary is theirs.dictionary, variable
            assert_arrays_equal([mine.codes], [theirs.codes], variable)
        index = access.forest.indexes[variable]
        expected = rebuilt.forest.indexes[variable]
        if expected.aux is None:
            assert index.totals == expected.totals, variable
            assert index.groups == expected.groups, variable
        else:
            assert index.aux.dictionary is expected.aux.dictionary
            assert_arrays_equal(
                aux_arrays(index.aux), aux_arrays(expected.aux), variable
            )
    assert len(access) == len(rebuilt)
    assert iter_rows(access) == iter_rows(rebuilt)


def _evens(rng, max_value):
    return 2 * rng.randint(0, max_value // 2)


class TestPatchEqualsRebuild:
    """The first read after a write derives its bag tables and forest
    from the previous version's, under both engines; the law is that
    nobody can tell.  After every read the served tables and bag-index
    groups (arrays under numpy) equal a from-scratch build at that
    version, the previous version's arrays, dicts and pinned view are
    as they were, and ``clear()`` makes the next read a cold build."""

    @pytest.mark.parametrize("engine", repro.available_engines())
    @pytest.mark.parametrize("case", sorted(PATCH_CASES))
    def test_delta_streams(self, case, engine):
        query, order, projected = patch_case(case)
        rng = random.Random(f"patch:{case}")
        relations = {
            name: {
                tuple(_evens(rng, 16) for _ in range(query.arity_of(name)))
                for _ in range(24)
            }
            for name in query.relation_symbols
        }
        conn = connect(relations, engine=engine)
        view = conn.prepare(query, order=order, projected=projected)
        pinned = (view, list(view), freeze_access(view._access))
        paths, patched = set(), 0
        for cycle in range(18):
            # One, two or three applies land before the read.  Values
            # past the maximum keep codes stable, odd ones renumber.
            for _ in range(cycle % 3 + 1):
                top = 16 + 4 * cycle
                draw = uniform_draw if cycle % 4 == 3 else _evens
                database = conn.database
                conn.apply(random_delta(rng, database, top, draw))
                paths.add(conn.stats()["store"]["full_reencodes"])
            before = conn.stats()
            view = conn.prepare(query, order=order, projected=projected)
            after = conn.stats()
            assert_equals_rebuild(view._access, engine, conn.database)
            old_view, rows, frozen = pinned
            assert list(old_view) == rows
            assert_frozen(frozen)
            moved = {
                key: after[key] - before[key]
                for key in (
                    "bag_materializations", "forest_builds",
                    "bag_patches", "forest_patches",
                )
            }
            bags = len(view._access.preprocessing.bags)
            assert moved["bag_materializations"] in (0, bags), moved
            assert moved["bag_patches"] <= bags, moved
            if moved["bag_materializations"]:
                assert moved["bag_patches"] == 0, moved
            patched += moved["bag_patches"]
            old_view.close()
            pinned = (view, list(view), freeze_access(view._access))
        assert patched > 0, "no read was patched"
        if engine == "numpy":
            # The python engine has no encoding to renumber.
            assert len(paths) > 1, "stream missed the renumbering path"

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_deletes_empty_groups_and_drop_root_candidates(self, engine):
        query, order, projected = patch_case("star")
        conn = connect(
            {
                "R": {(1, 10), (1, 12), (2, 10), (3, 14)},
                "S": {(1, 20), (2, 22), (3, 24), (3, 26)},
            },
            engine=engine,
        )
        conn.prepare(query, order=order)
        for delta in (
            Delta(deletes={"R": {(2, 10)}}),  # empties group 2, drops x=2
            Delta(deletes={"S": {(3, 24), (3, 26)}}),  # drops root x=3
            Delta(inserts={"R": {(2, 30)}, "S": {(2, 32)}}),  # x=2 back
            Delta(deletes={"R": {(1, 10), (1, 12), (2, 10), (2, 30)}}),
        ):
            conn.apply(delta)
            view = conn.prepare(query, order=order)
            assert_equals_rebuild(view._access, engine, conn.database)
        assert len(view) == 0

    @pytest.mark.parametrize("engine", repro.available_engines())
    @pytest.mark.parametrize("row", [(1, "a"), ("a", 10)])
    def test_incomparable_insert_fails_like_a_cold_read(self, engine, row):
        """A row with a value its column's others cannot be ordered
        against: the read after inserting it fails exactly as a cold
        read of the same data does, through the facade and the
        protocol alike, and deleting the row heals the next read."""
        query, order, _ = patch_case("star")
        relations = {
            "R": {(1, 10), (1, 12), (2, 10)},
            "S": {(1, 20), (2, 22)},
        }
        request = SessionRequest(
            op="access", query=STAR, order=tuple(order), indices=(0,)
        )
        cold = connect(
            {**relations, "R": relations["R"] | {row}}, engine=engine
        )
        with pytest.raises(TypeError) as expected:
            cold.prepare(query, order=order)
        answered = execute(cold, request)
        assert (answered.ok, answered.error_type) == (False, "TypeError")
        for read in ("prepare", "protocol"):
            conn = connect(relations, engine=engine)
            conn.prepare(query, order=order)
            conn.apply(Delta(inserts={"R": {row}}))
            if read == "prepare":
                with pytest.raises(TypeError) as raised:
                    conn.prepare(query, order=order)
                assert str(raised.value) == str(expected.value)
            else:
                response = execute(conn, request)
                assert (
                    response.ok, response.error_type, response.error
                ) == (False, "TypeError", answered.error)
            conn.apply(Delta(deletes={"R": {row}}))
            view = conn.prepare(query, order=order)
            assert_equals_rebuild(view._access, engine, conn.database)

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_clear_before_the_read_makes_it_cold(self, engine):
        query, order, _ = patch_case("star")
        conn = connect(
            {"R": {(1, 2), (3, 4)}, "S": {(1, 6), (3, 8)}}, engine=engine
        )
        conn.prepare(query, order=order)
        conn.apply(Delta(inserts={"R": {(1, 10)}}))
        conn.clear_cache()
        before = conn.stats()
        view = conn.prepare(query, order=order)
        after = conn.stats()
        assert after["bag_patches"] == before["bag_patches"]
        assert after["forest_patches"] == before["forest_patches"]
        assert after["bag_materializations"] - before[
            "bag_materializations"
        ] == 3
        assert after["forest_builds"] - before["forest_builds"] == 3
        assert_equals_rebuild(view._access, engine, conn.database)


class TestFreshReadTripwire:
    """The read after a code-stable one-row insert is pinned by counts,
    not a stopwatch: no bag relation or bag index is built from
    scratch, and exactly the bags reading ``R`` (the root ``x`` and
    ``y``) are patched, whatever ``|R|``, on both engines."""

    @needs_numpy
    @pytest.mark.parametrize("rows", [10**3, 10**4, 10**5])
    def test_one_row_insert_patches_the_touched_bags(self, rows):
        self.check_one_row_insert("numpy", rows)

    # 10⁵ rows stays numpy-only, to keep tier-1 fast.
    @pytest.mark.parametrize("rows", [10**3, 10**4])
    def test_python_engine_patches_the_touched_bags(self, rows):
        self.check_one_row_insert("python", rows)

    @staticmethod
    def check_one_row_insert(engine, rows):
        keys = max(rows // 10, 1)
        conn = connect(
            {
                "R": {(i % keys, 2 * i) for i in range(rows)},
                "S": {(i % keys, 2 * i + 1) for i in range(rows)},
            },
            engine=engine,
        )
        order = ["x", "y", "z"]
        old = conn.prepare(STAR, order=order)
        old[0]
        conn.apply(Delta(inserts={"R": {(0, 4 * rows)}}))  # past the max
        assert conn.stats()["store"]["incremental_encodes"] == 1
        before = conn.stats()
        fresh = conn.prepare(STAR, order=order)
        fresh[0]
        after = conn.stats()
        assert after["bag_materializations"] == before["bag_materializations"]
        assert after["forest_builds"] == before["forest_builds"]
        assert after["bag_patches"] - before["bag_patches"] == 2
        assert after["forest_patches"] - before["forest_patches"] == 2
        assert len(fresh) == len(old) + rows // keys
        # z reads only S: its table and index are the old ones.
        assert (
            fresh._access.forest.indexes["z"]
            is old._access.forest.indexes["z"]
        )


class TestVersionedStore:
    def test_apply_bumps_version_and_counts(self):
        store = ArtifactStore(fresh_database())
        assert store.db_version == 0
        version = store.apply(Delta(inserts={"R": {(9, 9)}}))
        assert version == 1 and store.db_version == 1
        stats = store.cache_stats()
        assert stats["deltas_applied"] == 1
        assert stats["db_version"] == 1
        assert (
            stats["incremental_encodes"] + stats["full_reencodes"] == 1
        )

    def test_untouched_decomposition_survives_with_zero_rebuilds(self):
        """The acceptance criterion: after a delta touching R, the
        artifacts of a query over T/U are served from cache — the
        generation counters prove no rebuild happened."""
        store = ArtifactStore(fresh_database())
        store.access(PATH, order=["x", "y", "z"])
        store.access(DISJOINT, order=["u", "v", "w"])
        builds_before = store.stats.artifact_builds
        store.apply(Delta(inserts={"R": {(90, 2)}}))
        stats = store.cache_stats()
        # The T/U artifacts (access + forest + preprocessing) plus the
        # data-independent plans/decompositions were carried ...
        assert stats["artifacts_carried"] >= 3
        # ... while the R-touching artifacts were invalidated.
        assert stats["artifacts_invalidated"] >= 3
        # Warm re-access of the untouched decomposition: zero builds.
        materialized = store.stats.bag_materializations
        hits = store.stats.access.hits
        store.access(DISJOINT, order=["u", "v", "w"])
        assert store.stats.artifact_builds == builds_before
        assert store.stats.bag_materializations == materialized
        assert store.stats.access.hits == hits + 1
        # The touched query rebuilds against the new database.
        access = store.access(PATH, order=["x", "y", "z"])
        assert store.stats.artifact_builds > builds_before
        assert (90, 2, 7) in iter_rows(access)

    def test_plans_are_carried_across_versions(self):
        store = ArtifactStore(fresh_database())
        store.plan(parse_query(PATH))
        store.apply(Delta(inserts={"R": {(50, 51)}}))
        store.plan(parse_query(PATH))
        assert store.stats.advisor_calls == 1  # no re-plan

    def test_old_version_artifacts_are_not_served(self):
        store = ArtifactStore(fresh_database())
        before = store.access(PATH, order=["x", "y", "z"])
        store.apply(Delta(deletes={"R": {(1, 2)}}))
        after = store.access(PATH, order=["x", "y", "z"])
        assert len(after) == len(before) - 2  # (1,2,7) and (1,2,9)
        # The pre-delta structure still answers from its snapshot.
        assert len(before) == 5

    def test_direct_put_without_deps_is_invalidated(self):
        store = ArtifactStore(fresh_database())
        store.put("access", "opaque", "value")
        store.apply(Delta(inserts={"R": {(9, 9)}}))
        assert store.get("access", "opaque") is None

    def test_data_independent_put_is_carried(self):
        store = ArtifactStore(fresh_database())
        store.put("plans", "thing", "value", relations=None)
        store.apply(Delta(inserts={"R": {(9, 9)}}))
        assert store.get("plans", "thing") == "value"

    @needs_numpy
    def test_full_reencode_leaves_old_snapshot_mirrors_intact(self):
        """Regression: when a mid-order value forces the full
        re-encode fallback, the new encoding must land on private
        relation copies — the old snapshot's shared relations keep
        their mirrors (and dictionary identity) for in-flight
        old-version builds."""
        store = ArtifactStore(
            {"R": {(10, 20)}, "S": {(20, 30)}}, engine="numpy"
        )
        old_database = store.database
        old_mirrors = {
            name: rel._columnar
            for name, rel in old_database.relations.items()
        }
        assert all(m is not None for m in old_mirrors.values())
        store.apply(Delta(inserts={"R": {(15, 20)}}))  # mid-order
        assert store.cache_stats()["full_reencodes"] == 1
        for name, rel in old_database.relations.items():
            assert rel._columnar is old_mirrors[name]
        new_relations = store.database.relations
        assert new_relations["S"] is not old_database.relations["S"]
        assert (
            new_relations["R"]._columnar.dictionary
            is new_relations["S"]._columnar.dictionary
        )

    def test_validation_failure_leaves_version_alone(self):
        store = ArtifactStore(fresh_database())
        with pytest.raises(DatabaseError):
            store.apply(Delta(inserts={"Nope": {(1, 2)}}))
        assert store.db_version == 0

    def test_empty_delta_is_a_no_op(self):
        """An empty delta must not bump the version or invalidate
        anything (the HTTP client ships no op for it, so local and
        remote apply must agree)."""
        store = ArtifactStore(fresh_database())
        store.access(PATH, order=["x", "y", "z"])
        assert store.apply(Delta()) == 0
        stats = store.cache_stats()
        assert stats["deltas_applied"] == 0
        assert stats["artifacts_invalidated"] == 0
        conn = connect(fresh_database())
        view = conn.prepare(PATH, order=["x", "y", "z"])
        assert conn.apply(Delta()) == 0
        assert view[0] == (1, 2, 7)  # still fresh

    @needs_numpy
    def test_encoded_database_store_counts_the_real_path(self):
        """A store over an EncodedDatabase must not double-encode nor
        misreport: a mid-order delta is one full re-encode, an
        append-only delta one incremental encode."""
        store = ArtifactStore(
            EncodedDatabase({"R": {(10, 20)}, "S": {(20, 30)}}),
            engine="numpy",
        )
        store.apply(Delta(inserts={"R": {(15, 20)}}))  # mid-order
        stats = store.cache_stats()
        assert stats["full_reencodes"] == 1
        assert stats["incremental_encodes"] == 0
        assert store.database.encoded_incrementally is False
        store.apply(Delta(inserts={"R": {(40, 41)}}))  # append-only
        stats = store.cache_stats()
        assert stats["incremental_encodes"] == 1
        assert store.database.encoded_incrementally is True


def iter_rows(access) -> list[tuple]:
    return [access.tuple_at(i) for i in range(len(access))]


class TestFacadeStaleness:
    def test_pinned_view_keeps_serving_on_every_read_path(self):
        conn = connect(fresh_database())
        view = conn.prepare(PATH, order=["x", "y", "z"])
        rows = list(view)
        sub = view[1:4]
        sub_rows = sub.to_list()
        assert view.db_version == 0
        version = conn.apply(Delta(inserts={"R": {(9, 9)}}))
        assert version == 1 and conn.db_version == 1
        # The view pinned version 0 at prepare time: every read path
        # keeps answering from that retained MVCC snapshot.
        assert view[0] == rows[0]
        assert list(view) == rows
        assert view.rank((1, 2, 7)) == 0
        assert view.ranks([(1, 2, 7)]) == [0]
        assert view.median() == rows[len(rows) // 2]
        assert len(view) == len(rows)
        assert bool(view)
        assert sub.to_list() == sub_rows  # windows inherit the pin
        assert "AnswerView" in repr(view)
        # A fresh prepare is served at the new head.
        assert conn.prepare(PATH, order=["x", "y", "z"]).db_version == 1

    def test_evicted_snapshot_raises_on_every_read_path(self):
        conn = connect(fresh_database(), retain_versions=1)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        sub = view[1:4]
        # Drop the pins: the version-0 snapshot now lives or dies with
        # the one-deep retention window alone.
        view.close()
        sub.close()
        conn.apply(Delta(inserts={"R": {(9, 9)}}))
        for read in (
            lambda: view[0],
            lambda: list(view),
            lambda: view.rank((1, 2, 7)),
            lambda: view.ranks([(1, 2, 7)]),
            lambda: view.median(),
            lambda: len(view),   # a stale count misleads pagination
            lambda: bool(view),  # ... and emptiness gates
            lambda: sub[0],  # windows inherit the pin
        ):
            with pytest.raises(StaleViewError):
                read()
        assert "AnswerView" in repr(view)  # repr stays usable

    def test_pin_outlives_the_retention_window(self):
        conn = connect(fresh_database(), retain_versions=1)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        rows = list(view)
        conn.apply(Delta(inserts={"R": {(9, 9)}}))
        conn.apply(Delta(deletes={"R": {(9, 9)}}))
        # Even with a one-deep window, the open view's refcount keeps
        # its snapshot alive until the last reader closes.
        assert list(view) == rows
        view.close()
        with pytest.raises(StaleViewError):
            view[0]

    def test_fresh_prepare_serves_post_delta_answers(self):
        conn = connect(fresh_database())
        before = conn.prepare(PATH, order=["x", "y", "z"])
        n = len(before)
        conn.insert("S", [(4, 2)])
        after = conn.prepare(PATH, order=["x", "y", "z"])
        assert after.db_version == 1
        assert len(after) == n + 1
        assert (3, 4, 2) in after
        conn.delete("S", [(4, 2)])
        final = conn.prepare(PATH, order=["x", "y", "z"])
        assert len(final) == n

    def test_incremental_equals_rebuild_per_engine(self):
        """The differential law at the facade: after a seeded
        insert/delete workload from the shared generator
        (:mod:`repro.chaos.deltas` — the same distribution the chaos
        harness drives), an incrementally maintained connection
        answers identically to a from-scratch one, on every engine.
        A failure is shrunk to the minimal delta sequence before
        being reported."""
        for engine in repro.available_engines():
            deltas = delta_sequence(5, fresh_database(), 8)

            def diverges(sequence, engine=engine):
                conn = connect(fresh_database(), engine=engine)
                database = fresh_database()
                for delta in sequence:
                    database = database.apply(delta)
                    conn.apply(delta)
                    live = conn.prepare(PATH, order=["x", "y", "z"])
                    rebuilt = connect(database, engine=engine).prepare(
                        PATH, order=["x", "y", "z"]
                    )
                    if (
                        list(live) != list(rebuilt)
                        or live.db_version != conn.db_version
                    ):
                        return True
                return False

            if diverges(deltas):
                minimal = shrink_deltas(deltas, diverges)
                pytest.fail(
                    f"incremental != rebuild under {engine}; "
                    f"minimal failing sequence: {minimal!r}"
                )


class TestProtocolMutations:
    @pytest.fixture()
    def conn(self):
        return connect(fresh_database())

    def run(self, conn, **fields):
        return execute(
            conn, SessionRequest(**fields), default_query=PATH
        )

    def test_insert_delete_db_version_round_trip(self, conn):
        response = self.run(conn, op="db_version")
        assert response.ok and response.result == {"db_version": 0}
        response = self.run(
            conn, op="insert", relation="R", rows=((9, 9),)
        )
        assert response.ok
        assert response.result == {
            "relation": "R",
            "rows": 1,
            "db_version": 1,
        }
        response = self.run(
            conn, op="delete", relation="R", rows=((9, 9),)
        )
        assert response.ok and response.result["db_version"] == 2

    def test_mutation_ops_validate_their_fields(self, conn):
        response = self.run(conn, op="insert", relation="R")
        assert not response.ok and "rows" in response.error
        response = self.run(
            conn, op="insert", relation="Nope", rows=((1, 2),)
        )
        assert not response.ok
        assert response.error_type == "DatabaseError"

    def test_served_responses_carry_db_version(self, conn):
        response = self.run(conn, op="count", order=("x", "y", "z"))
        assert response.ok and response.result["db_version"] == 0

    def test_pinned_op_is_served_from_the_snapshot(self, conn):
        fresh = self.run(
            conn, op="count", order=("x", "y", "z"), db_version=0
        )
        assert fresh.ok
        n = fresh.result["count"]
        self.run(conn, op="insert", relation="R", rows=((9, 2),))
        pinned = self.run(
            conn, op="count", order=("x", "y", "z"), db_version=0
        )
        assert pinned.ok
        assert pinned.result["count"] == n
        assert pinned.result["db_version"] == 0
        unpinned = self.run(conn, op="count", order=("x", "y", "z"))
        assert unpinned.ok and unpinned.result["db_version"] == 1
        assert unpinned.result["count"] == n + 2  # (9,2,7), (9,2,9)

    def test_evicted_pin_is_replayed_as_staleviewerror(self):
        conn = connect(fresh_database(), retain_versions=1)
        self.run(conn, op="insert", relation="R", rows=((9, 9),))
        stale = self.run(
            conn, op="count", order=("x", "y", "z"), db_version=0
        )
        assert not stale.ok
        assert stale.error_type == "StaleViewError"

    def test_apply_op_one_atomic_version_bump(self, conn):
        response = self.run(
            conn,
            op="apply",
            inserts={"R": ((9, 2),), "S": ((2, 99),)},
            deletes={"T": ((1, 1),)},
        )
        assert response.ok
        assert response.result == {
            "relations": ["R", "S", "T"],
            "rows": 3,
            "db_version": 1,
        }

    def test_effectively_empty_apply_is_a_no_op(self, conn):
        # Deleting an absent row and inserting an existing one leaves
        # the database unchanged: no version bump, current version back.
        response = self.run(
            conn,
            op="apply",
            inserts={"R": ((1, 2),)},
            deletes={"R": ((77, 77),)},
        )
        assert response.ok
        assert response.result["db_version"] == 0
        assert conn.db_version == 0

    def test_apply_op_validates_its_fields(self, conn):
        response = self.run(conn, op="apply")
        assert not response.ok and "inserts" in response.error

    def test_batched_rank_op(self, conn):
        response = self.run(
            conn,
            op="rank",
            order=("x", "y", "z"),
            answers=((1, 2, 7), (9, 9, 9), (3, 4, 1)),
        )
        assert response.ok
        assert response.result["ranks"] == [0, None, 4]


class TestOverTheWire:
    """Mutations, staleness, and client efficiency over real HTTP."""

    @pytest.fixture()
    def server(self):
        from repro.server import ReproServer

        with ReproServer(fresh_database(), workers=2) as running:
            yield running

    def test_remote_mutations_keep_pinned_views_serving(self, server):
        conn = connect(server.url)
        assert conn.db_version == 0
        view = conn.prepare(PATH, order=["x", "y", "z"])
        assert view.db_version == 0
        rows = list(view)
        n = len(rows)
        version = conn.insert("R", [(9, 2)])
        assert version == 1
        # The pinned view keeps answering from the retained snapshot.
        assert view[0] == rows[0]
        assert view.ranks([(1, 2, 7)]) == [0]
        assert len(view) == n
        fresh = conn.prepare(PATH, order=["x", "y", "z"])
        assert fresh.db_version == 1
        assert len(fresh) == n + 2  # (9,2,7) and (9,2,9)
        assert (9, 2, 7) in fresh
        assert conn.delete("R", [(9, 2)]) == 2

    def test_remote_apply_multi_relation_delta(self, server):
        conn = connect(server.url)
        version = conn.apply(
            Delta(
                inserts={"R": {(9, 2)}, "S": {(2, 99)}},
                deletes={"T": {(1, 1)}},
            )
        )
        assert version == 1  # one atomic bump for the whole delta
        view = conn.prepare(PATH, order=["x", "y", "z"])
        assert (9, 2, 99) in view
        # An effectively-empty delta answers with the current version.
        assert conn.apply(Delta(deletes={"T": {(1, 1)}})) == 1

    def test_batched_ranks_is_one_wire_op_per_chunk(self, server):
        conn = connect(server.url)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        answers = list(view)
        before = conn.stats()["server"]["requests"]
        ranks = view.ranks(answers + [(99, 99, 99), "junk"])
        after = conn.stats()["server"]["requests"]
        assert ranks == list(range(len(answers))) + [None, None]
        assert after - before == 1  # one batch op, not one per tuple

    def test_keep_alive_pool_reuses_sockets(self, server):
        conn = connect(server.url)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        for _ in range(5):
            list(view)
        assert conn.stats()["server"]["requests"] >= 6
        # All of it (healthz + stats + every POST) rode a handful of
        # kept-alive sockets, not one socket per request.
        assert conn._pool.opened <= conn._pool.MAX_IDLE
        conn.close()
        assert conn._pool._closed

    def test_pinned_window_over_the_wire(self, server):
        conn = connect(server.url)
        window = conn.prepare(PATH, order=["x", "y", "z"])[1:3]
        before = window.to_list()
        conn.insert("R", [(42, 2)])
        # Windows inherit the pin: still served from the snapshot.
        assert window.to_list() == before

    def test_pinned_ranks_answer_even_without_a_wire_row(self, server):
        """ranks([]) and ranks of non-sequence rows send nothing, so
        no op would carry the pin — the client probes the snapshot so
        the answer reflects the pinned version, like the local
        AnswerView.ranks."""
        conn = connect(server.url)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        conn.insert("R", [(43, 2)])
        assert view.ranks([]) == []
        assert view.ranks([42]) == [None]  # non-sequence: no wire row
        fresh = conn.prepare(PATH, order=["x", "y", "z"])
        assert fresh.ranks([]) == []
        assert fresh.ranks([42]) == [None]

    def test_evicted_snapshot_is_replayed_over_the_wire(self, server):
        """The server retains a bounded window of snapshots (default
        4): once a pinned version falls out, reads replay the same
        structured StaleViewError a local evicted view raises."""
        conn = connect(server.url)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        for step in range(5):
            conn.insert("R", [(50 + step, 2)])
        assert conn.db_version == 5
        with pytest.raises(StaleViewError):
            view[0]
        with pytest.raises(StaleViewError):
            view.ranks([])  # the probe replays the eviction too
