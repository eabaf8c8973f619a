"""Theorem 10 preprocessing: materializing the bag relations.

For each bag ``e_i`` of the disruption-free decomposition we compute a
relation over ``e_i`` by joining, with the worst-case optimal Generic
Join, the projections ``π_{e_i}(R_j)`` of the atoms realizing an optimal
fractional edge cover of ``H[e_i]`` — time ``O(|D|^{ρ*(H[e_i])})``, hence
``O(|D|^ι)`` overall. Each original atom is then enforced *exactly* (not
just as a projection) at the bag of its latest variable, which makes the
join of the bag relations equal to ``Q(D)``.

All tuple-level work (atom interpretation, projections, joins, exact
semijoin filters) runs on the execution engine active at construction
time, so one preprocessing pass is internally consistent even if the
global engine is switched while it runs.

After a write, the bag relations can instead be moved forward from the
previous version's by the delta rule (``patch_from``): bags that read
no touched relation are shared, the others get only the rows the delta
can add or remove.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.decomposition import Bag, DisruptionFreeDecomposition
from repro.data.database import Database
from repro.engine.registry import get_engine
from repro.errors import QueryError
from repro.joins.operators import Table
from repro.query.query import JoinQuery
from repro.query.variable_order import VariableOrder


@dataclass
class PreprocessedBag:
    """A bag together with its materialized relation.

    ``table`` has schema ``interface variables (in order) + (v_i,)``.
    """

    bag: Bag
    table: Table


@dataclass(frozen=True)
class BagTables:
    """Materialized bag relations with the identity they carry.

    ``tables`` maps each bag variable to its relation; ``key`` is
    ``(query signature, decomposition cache_key)`` and ``database`` the
    exact database the tables were computed from.  The provenance lets
    :class:`Preprocessing` *validate* injected tables instead of
    silently replaying stale ones: per-bag tables are order-independent
    within one (query, decomposition, database) triple, and only there.

    A carrier patched from an earlier version's (see
    :class:`Preprocessing`'s ``patch_from``) names that carrier's
    ``token`` as its ``basis`` and lists, per bag whose rows moved,
    the engine's change records (``changes``); a counting forest built
    over the basis is patched by exactly those rows.  Bags absent from
    ``changes`` hold the basis's table object itself.
    """

    tables: Mapping[str, Table]
    key: tuple
    database: Database
    token: object = field(default_factory=object, compare=False)
    basis: object = field(default=None, compare=False)
    changes: Mapping[str, Sequence] = field(
        default_factory=dict, compare=False
    )

    def __len__(self) -> int:
        return len(self.tables)


@dataclass(frozen=True)
class _BagPlan:
    """How one bag relation is computed: the cover atoms joined (by
    index into the query's atoms, with their projected variables), the
    atoms enforced exactly by a semijoin, and the relation names all of
    them read."""

    schema: tuple[str, ...]
    covers: tuple[tuple[int, tuple[str, ...]], ...]
    filters: tuple[int, ...]
    relations: frozenset[str]


class _Step:
    """One effective delta and the database it leads to, with the atom
    tables the delta rule reads built once per atom: the atom over the
    new relation, and over the delta's inserted and deleted rows (in
    the new relation's encoding; ``None`` when they cannot be)."""

    def __init__(self, engine, atoms, delta, database: Database):
        self._engine = engine
        self._atoms = atoms
        self._delta = delta
        self._database = database
        self._memo: dict[tuple, object] = {}

    def _table(self, side, a: int):
        key = (side, a)
        if key not in self._memo:
            atom = self._atoms[a]
            relation = self._database[atom.relation]
            if side == "current":
                value = self._engine.from_atom(atom, relation)
            else:
                rows = getattr(self._delta, side).get(atom.relation, ())
                value = (
                    self._engine.delta_table(atom, relation, rows)
                    if rows
                    else ()
                )
            self._memo[key] = value
        return self._memo[key]

    def current(self, a: int) -> Table:
        return self._table("current", a)

    def inserted(self, a: int):
        return self._table("inserts", a)

    def deleted(self, a: int):
        return self._table("deletes", a)


class Preprocessing:
    """The full Theorem 10 preprocessing result.

    This is the engine-room structure behind the facade: application
    code uses :func:`repro.connect` — preprocessing (and its
    cross-order caching) happens behind
    :meth:`repro.Connection.prepare`.

    Args:
        query: the join query.
        order: the variable order.
        database: the input database.
        decomposition: optionally, the already-built disruption-free
            decomposition of ``(query, order)`` (avoids recomputing it
            when a caller — e.g. the store's planner — has one).
        bag_tables: optionally, already-materialized bag relations as a
            :class:`BagTables` carrier, e.g. another
            :meth:`Preprocessing.bag_tables` result from a session
            cache fed by *another order inducing the same
            decomposition* (their schemas are canonical given the
            decomposition, so reuse is exact).  The carrier's
            provenance is validated — a different query, decomposition,
            or database raises :class:`~repro.errors.QueryError`.  When
            given, no tuple-level work happens at all;
            :attr:`materialized_bag_count` stays 0.
        patch_from: optionally, ``(base, steps)``: the
            :class:`BagTables` of this (query, decomposition) at an
            earlier database version, and the ``(delta, database)``
            pairs that lead from it to ``database`` (effective deltas,
            oldest first, the last database being ``database``).  Each
            bag whose plan reads no touched relation keeps its table
            object, and every other bag is moved forward by the delta
            rule and spliced by the engine
            (:meth:`~repro.engine.base.Engine.spliced_table`,
            :attr:`patched_bag_count`).  Anything the engine cannot
            express (a hook answers ``None``) falls back to a
            from-scratch materialization.
    """

    def __init__(
        self,
        query: JoinQuery,
        order: VariableOrder,
        database: Database,
        *,
        decomposition: DisruptionFreeDecomposition | None = None,
        bag_tables: BagTables | None = None,
        patch_from: tuple[BagTables, Sequence] | None = None,
    ):
        database.validate_for(query)
        self.query = query
        self.order = order
        self.database = database
        self.engine = get_engine()
        if decomposition is None:
            decomposition = DisruptionFreeDecomposition(query, order)
        elif (
            # Signatures, not __eq__: the head name is cosmetic, and
            # session caches deliberately share entries across it.
            decomposition.query is not query
            and decomposition.query.signature() != query.signature()
        ) or list(decomposition.order) != list(order):
            raise QueryError(
                "decomposition was built for a different query/order"
            )
        self.decomposition = decomposition
        self._position = {v: i for i, v in enumerate(order)}
        self._provenance = (
            query.signature(),
            decomposition.cache_key(),
        )
        #: Bags whose relations were materialized here (0 on cache reuse).
        self.materialized_bag_count = 0
        #: Bags whose relations were moved forward from ``patch_from``.
        self.patched_bag_count = 0
        #: Identity, patch basis and per-bag change records of these
        #: tables (the :class:`BagTables` fields of the same names).
        self.token: object = object()
        self.basis = None
        self.changes: dict[str, list] = {}
        if bag_tables is None:
            patched = (
                None if patch_from is None else self._patch(*patch_from)
            )
            if patched is None:
                self.bags = self._materialize()
                self.materialized_bag_count = len(self.bags)
            else:
                self.bags = patched
        else:
            if (
                bag_tables.database is not database
                or bag_tables.key != self._provenance
            ):
                raise QueryError(
                    "bag tables were built for a different "
                    "query/decomposition/database"
                )
            self.bags = [
                PreprocessedBag(
                    bag=bag, table=bag_tables.tables[bag.variable]
                )
                for bag in self.decomposition.bags
            ]
            self.token = bag_tables.token
            self.basis = bag_tables.basis
            self.changes = dict(bag_tables.changes)

    def bag_tables(self) -> BagTables:
        """The materialized bag relations as a reusable carrier.

        The cacheable artifact: every order inducing the same
        decomposition produces exactly these tables (same schemas, same
        rows), so a session stores this under the decomposition's
        :meth:`~repro.core.decomposition.DisruptionFreeDecomposition.cache_key`
        and replays it via the ``bag_tables`` constructor argument;
        the carrier's provenance guards the replay.
        """
        return BagTables(
            tables={
                item.bag.variable: item.table for item in self.bags
            },
            key=self._provenance,
            database=self.database,
            token=self.token,
            basis=self.basis,
            changes=self.changes,
        )

    @property
    def incompatibility_number(self):
        return self.decomposition.incompatibility_number

    def _ordered(self, variables) -> list[str]:
        return sorted(variables, key=self._position.__getitem__)

    def _plans(self) -> list[_BagPlan]:
        atoms = self.query.atoms
        # Atoms are enforced exactly at the bag of their latest variable.
        enforced_at: dict[int, list[int]] = {}
        for a, atom in enumerate(atoms):
            index = self.decomposition.bag_of_atom(atom.scope)
            enforced_at.setdefault(index, []).append(a)

        plans = []
        for bag in self.decomposition.bags:
            covers = []
            whole = set()  # atoms that join unprojected
            for trace, _weight in bag.cover:
                a = self._covering_atom(trace, bag)
                covers.append((a, tuple(self._ordered(trace))))
                if len(trace) == len(atoms[a].scope):
                    whole.add(a)
            if not covers:
                raise QueryError(
                    f"bag {set(bag.edge)} has an empty fractional cover"
                )
            # The join already holds only rows of every atom it joined
            # whole: filtering by that same atom is the identity.
            # Another atom of equal scope (a self-join, ``R(x,y),
            # S(x,y)``) still filters.
            filters = tuple(
                a for a in enforced_at.get(bag.index, ()) if a not in whole
            )
            plans.append(
                _BagPlan(
                    schema=tuple(
                        self._ordered(bag.interface) + [bag.variable]
                    ),
                    covers=tuple(covers),
                    filters=filters,
                    relations=frozenset(
                        atoms[a].relation
                        for a in (*(c for c, _ in covers), *filters)
                    ),
                )
            )
        return plans

    def _covering_atom(self, trace: frozenset[str], bag: Bag) -> int:
        """The index of an atom whose scope traces to ``trace`` on the
        bag (its projection ``π_{e_i}`` joins into the bag relation)."""
        for a, atom in enumerate(self.query.atoms):
            if atom.scope & bag.edge == trace:
                return a
        raise QueryError(
            f"no atom realizes trace {set(trace)} on bag {set(bag.edge)}"
        )

    def _project(self, table: Table, variables) -> Table:
        return self.engine.project(
            table, variables, table._positions(variables)
        )

    def _atom_tables(self) -> list[Table]:
        return [
            self.engine.from_atom(atom, self.database[atom.relation])
            for atom in self.query.atoms
        ]

    def _materialize(self) -> list[PreprocessedBag]:
        atom_tables = self._atom_tables()
        out: list[PreprocessedBag] = []
        for bag, plan in zip(self.decomposition.bags, self._plans()):
            table = self.engine.join(
                [
                    self._project(atom_tables[a], variables)
                    for a, variables in plan.covers
                ],
                plan.schema,
            )
            for a in plan.filters:  # exact filters
                table = self.engine.semijoin(table, atom_tables[a])
            out.append(PreprocessedBag(bag=bag, table=table))
        return out

    # -- moving forward by a delta ------------------------------------------

    def _patch(self, base: BagTables, steps) -> list[PreprocessedBag] | None:
        """The bag relations of ``base`` moved through ``steps``, or
        ``None`` when they cannot be patched (rebuild instead).

        Per step, a bag whose plan reads no touched relation keeps its
        table object.  For the others, the delta rule gives the rows
        that may enter — the bag's cover join with one touched atom
        replaced by its inserted rows, or with a touched filter atom's
        inserted rows joined in, then filtered like :meth:`_materialize`
        — and the rows that may leave: the old rows matching a deleted
        row of an atom the bag reads, kept only if they still satisfy
        every atom of the new version.  The engine splices both into
        the table (``spliced_table``) on fresh storage.
        """
        if (
            base.key != self._provenance
            or not steps
            or steps[-1][1] is not self.database
        ):
            return None
        plans = self._plans()
        tables = dict(base.tables)
        changes: dict[str, list] = {}
        touched_bags = set()
        for delta, database in steps:
            step = _Step(self.engine, self.query.atoms, delta, database)
            for bag, plan in zip(self.decomposition.bags, plans):
                if not plan.relations & delta.touched:
                    continue
                touched_bags.add(bag.variable)
                inserted = self._entering(plan, step)
                removed, kept = self._leaving(
                    plan, step, tables[bag.variable]
                )
                if inserted is None or removed is None:
                    return None
                if not inserted and not removed:
                    continue
                spliced = self.engine.spliced_table(
                    tables[bag.variable], inserted, removed, kept
                )
                if spliced is None:
                    return None
                table, change = spliced
                if change is not None:
                    tables[bag.variable] = table
                    changes.setdefault(bag.variable, []).append(change)
        self.patched_bag_count = len(touched_bags)
        self.basis = base.token
        self.changes = changes
        return [
            PreprocessedBag(bag=bag, table=tables[bag.variable])
            for bag in self.decomposition.bags
        ]

    def _entering(self, plan: _BagPlan, step: "_Step") -> list | None:
        """Candidate rows the step may add to the bag (``None``: not
        expressible in the engine's encoding)."""
        atoms = self.query.atoms
        joins = []
        for i, (a, variables) in enumerate(plan.covers):
            added = step.inserted(a)
            if added is None:
                return None
            if not len(added):
                continue
            joins.append(
                [
                    self._project(
                        added if j == i else step.current(b), names
                    )
                    for j, (b, names) in enumerate(plan.covers)
                ]
            )
        for a in plan.filters:
            added = step.inserted(a)
            if added is None:
                return None
            if not len(added):
                continue
            shared = self._ordered(atoms[a].scope & set(plan.schema))
            if not shared:
                return None
            joins.append(
                [
                    self._project(step.current(b), names)
                    for b, names in plan.covers
                ]
                + [self._project(added, tuple(shared))]
            )
        out = []
        for tables in joins:
            table = self.engine.join(tables, plan.schema)
            for a in plan.filters:
                table = self.engine.semijoin(table, step.current(a))
            out.append(table)
        return out

    def _leaving(self, plan: _BagPlan, step: "_Step", table: Table):
        """``(removed, kept)``: old rows the step may drop, and those
        of them every atom of the new version still supports (``None,
        None``: not expressible in the engine's encoding)."""
        reads = dict.fromkeys((*(a for a, _ in plan.covers), *plan.filters))
        removed = []
        for a in reads:
            gone = step.deleted(a)
            if gone is None:
                return None, None
            if len(gone):
                removed.append(self.engine.semijoin(table, gone))
        kept = []
        for candidates in removed:
            for a in reads:
                candidates = self.engine.semijoin(
                    candidates, step.current(a)
                )
            kept.append(candidates)
        return removed, kept

    def materialized_size(self) -> int:
        """Total number of tuples across the bag relations."""
        return sum(len(p.table) for p in self.bags)
