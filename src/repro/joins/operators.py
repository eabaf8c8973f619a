"""Named-schema relational algebra.

A :class:`Table` pairs a schema (distinct variable names) with a set of
rows; it is the working representation inside the join algorithms, while
:class:`~repro.data.relation.Relation` is the stored representation.
Atoms with repeated variables turn into tables over the *set* of
variables, keeping only rows where the repeated columns agree.

Tuple-level work is routed through the active execution engine
(:mod:`repro.engine`): the Python engine operates on the ``rows``
frozenset directly, while the numpy engine operates on a
dictionary-encoded columnar mirror and materializes ``rows`` lazily —
observable behavior (row sets, equality, hashing) is identical either
way.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.data.relation import Relation
from repro.engine.registry import get_engine
from repro.errors import DatabaseError
from repro.query.atoms import Atom


class Table:
    """An immutable relation with named columns."""

    __slots__ = ("schema", "_rows", "_columnar")

    def __init__(self, schema: Iterable[str], rows: Iterable[tuple]):
        self.schema: tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise DatabaseError(f"schema {self.schema} repeats a column")
        self._columnar = None
        self._rows: frozenset[tuple] | None = frozenset(
            tuple(r) for r in rows
        )
        for row in self._rows:
            if len(row) != len(self.schema):
                raise DatabaseError(
                    f"row {row} does not fit schema {self.schema}"
                )

    @classmethod
    def _from_columnar(cls, schema: tuple[str, ...], columnar) -> "Table":
        """Wrap an engine-produced columnar batch (rows decoded lazily).

        ``columnar`` must hold unique rows matching ``schema``'s arity.
        """
        table = object.__new__(cls)
        table.schema = tuple(schema)
        table._rows = None
        table._columnar = columnar
        return table

    @classmethod
    def _from_rows(cls, schema: tuple[str, ...], rows: frozenset) -> "Table":
        """Wrap an engine-produced row set without re-walking it.

        ``schema`` must be duplicate-free and every row of ``rows`` a
        tuple of its arity.
        """
        table = object.__new__(cls)
        table.schema = tuple(schema)
        table._rows = rows
        table._columnar = None
        return table

    @property
    def rows(self) -> frozenset[tuple]:
        """The row set (decoded from columnar storage on first use)."""
        if self._rows is None:
            self._rows = frozenset(self._columnar.to_rows())
        return self._rows

    @classmethod
    def from_atom(cls, atom: Atom, relation: Relation) -> "Table":
        """Interpret ``relation`` through ``atom``.

        Repeated variables are collapsed: only rows assigning equal values
        to equal variables survive, and each variable keeps one column.
        """
        if relation.arity != atom.arity:
            raise DatabaseError(
                f"{atom} expects arity {atom.arity}, relation has "
                f"{relation.arity}"
            )
        return get_engine().from_atom(atom, relation)

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return self._columnar.nrows

    def __repr__(self) -> str:
        return f"Table({list(self.schema)}, n={len(self)})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Table):
            return self.schema == other.schema and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.schema, self.rows))

    def _positions(self, variables: Iterable[str]) -> list[int]:
        index = {v: i for i, v in enumerate(self.schema)}
        try:
            return [index[v] for v in variables]
        except KeyError as exc:
            raise DatabaseError(
                f"{exc.args[0]} is not a column of {self!r}"
            ) from None

    def project(self, variables: Iterable[str]) -> "Table":
        """Project onto ``variables`` (which must be in the schema)."""
        variables = tuple(variables)
        positions = self._positions(variables)
        return get_engine().project(self, variables, positions)

    def select(self, assignment: dict[str, object]) -> "Table":
        """Keep rows consistent with a partial assignment."""
        return get_engine().select(self, assignment)

    def semijoin(self, other: "Table") -> "Table":
        """``self ⋉ other``: keep rows matching ``other`` on shared columns."""
        return get_engine().semijoin(self, other)

    def natural_join(self, other: "Table") -> "Table":
        """Join on shared columns (hash join or vectorized merge join)."""
        return get_engine().natural_join(self, other)

    def sorted_rows(self) -> list[tuple]:
        """Rows in lexicographic order (engine-sorted)."""
        return get_engine().sorted_rows(self)

    def rows_as_dicts(self) -> Iterable[dict[str, object]]:
        """Yield rows as variable -> constant mappings."""
        for row in self.rows:
            yield dict(zip(self.schema, row))

    def to_relation(self) -> Relation:
        """Forget column names, producing a stored Relation."""
        return Relation(self.rows, arity=len(self.schema))


def cross_product(tables: Iterable[Table]) -> Table:
    """Cartesian product of tables with pairwise disjoint schemas."""
    result: Table | None = None
    for table in tables:
        result = table if result is None else result.natural_join(table)
    if result is None:
        raise DatabaseError("cross product of zero tables")
    return result
