"""The reference engine: frozensets of Python tuples, per-row loops.

This engine preserves the original behavior of the reproduction exactly;
the numpy engine is differentially tested against it.  It has no
dependencies and works for any hashable constants (the join operators do
not even require comparability — only the order-sensitive structures,
tries and counting forests, do).

Batch access and inverse access (``batch_rank``) use the base class's
reference paths: one scalar counting-forest descent per index or tuple
(:func:`repro.engine.base.rank_walk`) — the semantics the numpy
engine's vectorized strategies are checked against.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.base import BagIndex, Engine


class PythonEngine(Engine):
    """Tuple-at-a-time execution over ``frozenset`` row storage."""

    name = "python"

    # -- relational operators ---------------------------------------------

    def from_atom(self, atom, relation):
        from repro.joins.operators import Table

        schema: list[str] = []
        for var in atom.variables:
            if var not in schema:
                schema.append(var)
        rows = set()
        for raw in relation.tuples:
            binding = atom.binding(raw)
            if binding is not None:
                rows.add(tuple(binding[v] for v in schema))
        return Table(schema, rows)

    def project(self, table, variables, positions):
        from repro.joins.operators import Table

        return Table(
            variables,
            {tuple(row[p] for p in positions) for row in table.rows},
        )

    def select(self, table, assignment):
        from repro.joins.operators import Table

        bound = [
            (i, assignment[v])
            for i, v in enumerate(table.schema)
            if v in assignment
        ]
        return Table(
            table.schema,
            {
                row
                for row in table.rows
                if all(row[i] == value for i, value in bound)
            },
        )

    def semijoin(self, left, right):
        from repro.joins.operators import Table

        shared = [v for v in left.schema if v in right.schema]
        if not shared:
            return left if len(right) else Table(left.schema, ())
        mine = left._positions(shared)
        theirs = right._positions(shared)
        keys = {tuple(row[p] for p in theirs) for row in right.rows}
        return Table(
            left.schema,
            {
                row
                for row in left.rows
                if tuple(row[p] for p in mine) in keys
            },
        )

    def natural_join(self, left, right):
        from repro.joins.operators import Table

        shared = [v for v in left.schema if v in right.schema]
        extra = [v for v in right.schema if v not in left.schema]
        out_schema = left.schema + tuple(extra)
        theirs_shared = right._positions(shared)
        theirs_extra = right._positions(extra)
        buckets: dict[tuple, list[tuple]] = {}
        for row in right.rows:
            key = tuple(row[p] for p in theirs_shared)
            buckets.setdefault(key, []).append(
                tuple(row[p] for p in theirs_extra)
            )
        mine_shared = left._positions(shared)
        rows = set()
        for row in left.rows:
            key = tuple(row[p] for p in mine_shared)
            for suffix in buckets.get(key, ()):
                rows.add(row + suffix)
        return Table(out_schema, rows)

    def join(self, tables, variable_order):
        from repro.joins.generic_join import generic_join_iter
        from repro.joins.operators import Table

        return Table(
            tuple(variable_order),
            generic_join_iter(tables, variable_order),
        )

    # -- ordering ----------------------------------------------------------

    def sorted_rows(self, table):
        return sorted(table.rows)

    def intersect_sorted(self, left: Sequence, right: Sequence) -> list:
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            a, b = left[i], right[j]
            if a == b:
                out.append(a)
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return out

    # -- database preparation ----------------------------------------------

    def encode_database(self, database) -> None:
        """Warm the per-relation sorted-tuple caches (the only per-query
        setup the tuple-at-a-time path repeats).  After an ``apply`` a
        mutated relation arrives with its list already carried forward
        (:meth:`Relation.patched <repro.data.relation.Relation.patched>`),
        so only relations that never had one are sorted here."""
        for relation in database.relations.values():
            try:
                relation.sorted_tuples()
            except TypeError:  # incomparable domain: sorting is per-op
                pass

    # -- counting forest ---------------------------------------------------

    def build_bag_index(self, table, child_slots, projected):
        weighted: dict[tuple, int] = {}
        for row in table.rows:
            weight = 1
            for child_index, positions in child_slots:
                weight *= child_index.total(
                    tuple(row[p] for p in positions)
                )
                if weight == 0:
                    break
            if projected and weight > 0:
                # Existence suffices below a projected variable: the bag
                # variable and everything beneath it is projected, so
                # collapse multiplicity to one per row ...
                weight = 1
            weighted[row] = weight
        index = BagIndex()
        index.build(weighted)
        if projected:
            # ... and to one per *interface* value: the caller must not
            # distinguish different values of the projected variable
            # either.
            for interface in index.totals:
                index.totals[interface] = 1
        return index
