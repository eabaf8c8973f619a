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
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

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
    """

    tables: Mapping[str, Table]
    key: tuple
    database: Database

    def __len__(self) -> int:
        return len(self.tables)


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
            when a caller — e.g. the session's advisor — has one).
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
    """

    def __init__(
        self,
        query: JoinQuery,
        order: VariableOrder,
        database: Database,
        *,
        decomposition: DisruptionFreeDecomposition | None = None,
        bag_tables: BagTables | None = None,
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
        if bag_tables is None:
            self.bags = self._materialize()
            self.materialized_bag_count = len(self.bags)
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
        )

    @property
    def incompatibility_number(self):
        return self.decomposition.incompatibility_number

    def _atom_tables(self) -> list[Table]:
        return [
            self.engine.from_atom(atom, self.database[atom.relation])
            for atom in self.query.atoms
        ]

    def _ordered(self, variables) -> list[str]:
        return sorted(variables, key=self._position.__getitem__)

    def _materialize(self) -> list[PreprocessedBag]:
        atom_tables = self._atom_tables()

        # Atoms are enforced exactly at the bag of their latest variable.
        enforced_at: dict[int, list[Table]] = {}
        for table in atom_tables:
            index = self.decomposition.bag_of_atom(frozenset(table.schema))
            enforced_at.setdefault(index, []).append(table)

        out: list[PreprocessedBag] = []
        for bag in self.decomposition.bags:
            bag_schema = self._ordered(bag.interface) + [bag.variable]
            cover_tables = []
            whole: list[Table] = []  # atoms that join unprojected
            for trace, _weight in bag.cover:
                source = self._covering_atom(trace, bag, atom_tables)
                variables = tuple(self._ordered(trace))
                cover_tables.append(
                    self.engine.project(
                        source, variables, source._positions(variables)
                    )
                )
                if len(trace) == len(source.schema):
                    whole.append(source)
            if not cover_tables:
                raise QueryError(
                    f"bag {set(bag.edge)} has an empty fractional cover"
                )
            table = self.engine.join(cover_tables, bag_schema)
            for exact in enforced_at.get(bag.index, ()):  # exact filters
                # The join already holds only rows of every table it
                # joined whole: filtering by that same table object is
                # the identity.  Another atom of equal scope (a
                # self-join, ``R(x,y), S(x,y)``) is a different object
                # and still filters.
                if not any(exact is source for source in whole):
                    table = self.engine.semijoin(table, exact)
            out.append(PreprocessedBag(bag=bag, table=table))
        return out

    def _covering_atom(
        self, trace: frozenset[str], bag: Bag, atom_tables: list[Table]
    ) -> Table:
        """The table of an atom whose scope traces to ``trace`` on the
        bag (its projection ``π_{e_i}`` joins into the bag relation)."""
        for table in atom_tables:
            if frozenset(table.schema) & bag.edge == trace:
                return table
        raise QueryError(
            f"no atom realizes trace {set(trace)} on bag {set(bag.edge)}"
        )

    def materialized_size(self) -> int:
        """Total number of tuples across the bag relations."""
        return sum(len(p.table) for p in self.bags)
