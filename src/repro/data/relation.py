"""In-memory relations.

A relation is a finite set of constant tuples of a fixed arity. Constants
can be any hashable, mutually comparable Python values (ints in the
generators; tuples of such values arise in the paper's reductions, which
pack several roles into one variable). The database's linear order on
constants is the natural Python ordering.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable

from repro.errors import DatabaseError


class Relation:
    """An immutable set of same-arity tuples with sorted iteration."""

    __slots__ = ("_tuples", "_arity", "_sorted", "_columnar")

    def __init__(self, tuples: Iterable[tuple], arity: int | None = None):
        tuple_set = frozenset(map(tuple, tuples))
        if arity is None:
            if not tuple_set:
                raise DatabaseError(
                    "empty relation needs an explicit arity"
                )
            arity = len(next(iter(tuple_set)))
        if tuple_set and set(map(len, tuple_set)) != {arity}:
            odd = next(t for t in tuple_set if len(t) != arity)
            raise DatabaseError(
                f"tuple {odd} does not have arity {arity}"
            )
        self._tuples = tuple_set
        self._arity = arity
        self._sorted: list[tuple] | None = None
        # Dictionary-encoded mirror, filled lazily by the numpy engine.
        self._columnar = None

    @classmethod
    def _make(cls, tuples, arity, sorted_rows, mirror) -> "Relation":
        """Assemble a relation from parts that are already known good
        (validated rows, a cache derived from them): no per-row work."""
        self = object.__new__(cls)
        self._tuples = tuples
        self._arity = arity
        self._sorted = sorted_rows
        self._columnar = mirror
        return self

    def with_mirror(self, mirror) -> "Relation":
        """A private copy of this relation carrying ``mirror`` (or no
        mirror) instead of its own.

        Mirrors are installed on relation objects in place and a
        relation is shared by every database version it is unchanged
        in, so an engine that must re-express the mirror under another
        dictionary does it on a copy.  The tuple set and the sorted
        list are immutable once built and stay shared.
        """
        return Relation._make(
            self._tuples,
            self._arity,
            self._sorted,
            mirror,
        )

    def patched(
        self, inserts: frozenset[tuple], deletes: frozenset[tuple]
    ) -> "Relation":
        """``(self - deletes) | inserts`` as a new relation, for
        *effective* changes: ``deletes`` present, ``inserts`` absent,
        rows already validated (what
        :meth:`~repro.data.delta.Delta.effective_against` produces).

        The set operations run in C, and a sorted list this relation
        has cached is carried forward by bisection instead of being
        re-sorted on the next read.  The columnar mirror is not carried
        here: its dictionary is shared across relations, so the engine
        moves it (:func:`~repro.data.columnar.carry_shared_encoding`).
        """
        tuples = self.tuples
        if deletes:
            tuples = tuples - deletes
        if inserts:
            tuples = tuples | inserts
        rows = self._sorted
        if rows is not None:
            rows = list(rows)
            try:
                for row in deletes:
                    del rows[bisect_left(rows, row)]
                for row in inserts:
                    insort(rows, row)
            except TypeError:  # a new value the old ones cannot order
                rows = None
        return Relation._make(tuples, self._arity, rows, None)

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def tuples(self) -> frozenset[tuple]:
        return self._tuples

    def sorted_tuples(self) -> list[tuple]:
        """Tuples in lexicographic order (cached)."""
        if self._sorted is None:
            self._sorted = sorted(self._tuples)
        return self._sorted

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self):
        return iter(self.sorted_tuples())

    def __contains__(self, item) -> bool:
        return tuple(item) in self.tuples

    def __eq__(self, other) -> bool:
        if isinstance(other, Relation):
            return (
                self._arity == other._arity
                and self.tuples == other.tuples
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._arity, self.tuples))

    def __repr__(self) -> str:
        preview = ", ".join(map(str, self.sorted_tuples()[:4]))
        suffix = ", ..." if len(self) > 4 else ""
        return f"Relation[{self._arity}]({{{preview}{suffix}}}, n={len(self)})"

    def active_domain(self) -> set:
        """All constants appearing in some tuple."""
        return {value for t in self.tuples for value in t}

    def project(self, columns: Iterable[int]) -> "Relation":
        """Project onto the given column indices (in the given order)."""
        cols = list(columns)
        for c in cols:
            if not 0 <= c < self._arity:
                raise DatabaseError(f"column {c} out of range")
        return Relation(
            {tuple(t[c] for c in cols) for t in self.tuples},
            arity=len(cols),
        )

    def filtered(self, predicate) -> "Relation":
        """Keep tuples for which ``predicate(tuple)`` is true."""
        return Relation(
            {t for t in self.tuples if predicate(t)}, arity=self._arity
        )
