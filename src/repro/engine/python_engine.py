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

After a write, bag tables and counting forests are moved forward
rather than rebuilt, like under numpy: a bag table is spliced by
frozenset algebra, and a bag index rebuilds only the interface groups a
moved row (or a child's changed total) lies in, sharing every other
group with the previous version's index.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.base import BagIndex, Engine


class PythonEngine(Engine):
    """Tuple-at-a-time execution over ``frozenset`` row storage."""

    name = "python"

    # -- relational operators ---------------------------------------------

    def from_atom(self, atom, relation):
        return _bound(atom, relation.tuples)

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
        index = BagIndex()
        index.build(
            {row: _weight(row, child_slots, projected) for row in table.rows}
        )
        if projected:
            # Rows weigh one each below a projected variable (_weight),
            # and so does every *interface* value: the caller must not
            # distinguish different values of the projected variable
            # either.
            for interface in index.totals:
                index.totals[interface] = 1
        return index

    # -- incremental maintenance -------------------------------------------

    def delta_table(self, atom, relation, rows):
        """Delta rows through ``atom``; ``None`` when ``relation``'s
        rows cannot be sorted.  Over such a domain a cold read fails
        in its joins' tries, and so must this one: the caller rebuilds
        (numpy's rule too, where the domain cannot be encoded)."""
        try:
            relation.sorted_tuples()
        except TypeError:
            return None
        return _bound(atom, rows)

    def spliced_table(self, table, inserted, removed, kept):
        """Splice by set algebra: ``(old - (removed & old - kept)) |
        (inserted - old)``.  The change record is the frozenset of the
        rows that moved, inserted and removed alike."""
        from repro.joins.operators import Table

        sides = []
        for tables in (inserted, removed, kept):
            if any(part.schema != table.schema for part in tables):
                return None
            sides.append(frozenset().union(*(part.rows for part in tables)))
        inserts, removals, keeps = sides
        old = table.rows
        gained = inserts - old
        lost = (removals & old) - keeps
        if not gained and not lost:
            return table, None
        return (
            Table._from_rows(table.schema, (old - lost) | gained),
            gained | lost,
        )

    def patch_bag_index(
        self, index, table, changes, child_slots, child_changes,
        projected,
    ):
        """Rebuild only the interface groups a touched row lies in.

        The touched rows are the spliced ones (``changes``) plus every
        row whose child interface is in ``child_changes`` (sets of
        interface tuples).  ``groups`` and ``totals`` start as shallow
        copies of the old dicts; each touched group is re-formed from
        its old candidates with the touched rows' weights recomputed
        (0 once a row left the table) and stored as fresh lists, so the
        old group triples are shared and never written.  The change
        record is the set of interfaces whose total changed.
        """
        rows = table.rows
        touched = set().union(*changes)
        for (_child, positions), keys in zip(child_slots, child_changes):
            if keys:
                touched.update(
                    row
                    for row in rows
                    if tuple(row[p] for p in positions) in keys
                )
        if not touched:
            return index, None
        moves: dict[tuple, dict] = {}
        for row in touched:
            moves.setdefault(row[:-1], {})[row[-1]] = (
                _weight(row, child_slots, projected) if row in rows else 0
            )
        out = BagIndex()
        out.groups = dict(index.groups)
        out.totals = dict(index.totals)
        changed = set()
        for interface, moved in moves.items():
            values, weights, _ = index.groups.get(interface, ((), (), ()))
            candidates = dict(zip(values, weights))
            candidates.update(moved)
            total = out.put_group(
                interface, {v: w for v, w in candidates.items() if w > 0}
            )
            if projected and total:
                total = out.totals[interface] = 1
            if total != index.total(interface):
                changed.add(interface)
        return out, (changed or None)


def _bound(atom, raws):
    """The rows of ``raws`` that bind ``atom`` consistently, as a table
    over the atom's distinct variables (repeats collapsed)."""
    from repro.joins.operators import Table

    schema = tuple(dict.fromkeys(atom.variables))
    rows = set()
    for raw in raws:
        binding = atom.binding(raw)
        if binding is not None:
            rows.add(tuple(binding[v] for v in schema))
    return Table._from_rows(schema, frozenset(rows))


def _weight(row, child_slots, projected) -> int:
    """A bag row's weight: the product of its children's totals at the
    row's interface values."""
    weight = 1
    for child_index, positions in child_slots:
        weight *= child_index.total(tuple(row[p] for p in positions))
        if weight == 0:
            return 0
    # Existence suffices below a projected variable: the bag variable
    # and everything beneath it is projected, so collapse multiplicity
    # to one per row.
    return 1 if projected else weight
