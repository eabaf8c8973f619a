"""Databases: assignments of relations to the relation symbols of a query."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.data.relation import Relation
from repro.errors import DatabaseError
from repro.query.query import JoinQuery


class Database:
    """A mapping from relation symbols to :class:`Relation` instances.

    ``len(db)`` is the paper's ``|D|``: the total number of tuples across
    all relations.
    """

    def __init__(self, relations: Mapping[str, Relation | Iterable[tuple]]):
        self._relations: dict[str, Relation] = {}
        for name, rel in relations.items():
            if not isinstance(rel, Relation):
                rel = Relation(rel)
            self._relations[name] = rel

    @property
    def relations(self) -> dict[str, Relation]:
        return dict(self._relations)

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise DatabaseError(f"no relation named {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        """``|D|``: total tuple count."""
        return sum(len(rel) for rel in self._relations.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, Database):
            return self._relations == other._relations
        return NotImplemented

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}: {len(rel)}" for name, rel in sorted(
                self._relations.items()
            )
        )
        return f"Database({{{parts}}}, |D|={len(self)})"

    def domain(self) -> set:
        """dom(D): all constants appearing anywhere in the database."""
        out: set = set()
        for rel in self._relations.values():
            out |= rel.active_domain()
        return out

    def extended(
        self, extra: Mapping[str, Relation | Iterable[tuple]]
    ) -> "Database":
        """A new database with additional (or replaced) relations."""
        merged: dict[str, Relation | Iterable[tuple]] = dict(
            self._relations
        )
        merged.update(extra)
        return Database(merged)

    def apply(self, delta) -> "Database":
        """A new database with ``delta``'s inserts/deletes applied.

        Untouched relations are *shared by object* with this database
        (their sorted-tuple and columnar caches survive), so applying
        a small delta costs work proportional to the mutated relations
        only.  The delta must name existing relations with rows of the
        right arity (:class:`~repro.errors.DatabaseError` otherwise);
        within one delta, deletes apply before inserts.
        """
        from repro.data.delta import Delta

        delta = Delta.coerce(delta)
        delta.validate_against(self)
        return self.advanced_by(delta.effective_against(self))

    def advanced_by(self, delta) -> "Database":
        """:meth:`apply` for a delta that is already validated and
        *effective* against this database
        (:meth:`~repro.data.delta.Delta.effective_against`) — what the
        store establishes before it logs a delta, so the work is not
        repeated per layer."""
        return Database(self._advanced_relations(delta))

    def _advanced_relations(self, delta) -> dict[str, Relation]:
        """This database's relations with each touched one moved
        forward by its changes (:meth:`Relation.patched
        <repro.data.relation.Relation.patched>`)."""
        merged = dict(self._relations)
        for name in delta.touched:
            merged[name] = merged[name].patched(
                delta.inserts.get(name, frozenset()),
                delta.deletes.get(name, frozenset()),
            )
        return merged

    def validate_for(self, query: JoinQuery) -> None:
        """Check every query symbol is present with the right arity."""
        for symbol in query.relation_symbols:
            relation = self[symbol]
            expected = query.arity_of(symbol)
            if relation.arity != expected:
                raise DatabaseError(
                    f"{symbol} has arity {relation.arity}, query needs "
                    f"{expected}"
                )


class EncodedDatabase(Database):
    """A database whose relations share one order-preserving dictionary.

    The paper's word-RAM model assumes the active domain is ``[n]``
    once, for the whole database; a plain :class:`Database` leaves each
    relation to be dictionary-encoded independently, so every
    cross-table operation of the numpy engine pays a dictionary merge
    plus a code remap.  An :class:`EncodedDatabase` realizes the model's
    assumption eagerly: one shared :class:`~repro.data.columnar.Dictionary`
    over ``dom(D)``, built at construction, shared by every relation's
    columnar mirror, so all downstream merges short-circuit on object
    identity.

    ``shared_dictionary`` is ``None`` when the encoding is unavailable
    (no numpy, or a domain that is not totally orderable); the database
    then behaves exactly like a plain :class:`Database`.
    """

    def __init__(self, relations: Mapping[str, Relation | Iterable[tuple]]):
        super().__init__(relations)
        from repro.data.columnar import shared_dictionary_encode

        # Encode private copies: the mirrors are installed on the
        # Relation objects in place, and the caller's relations may be
        # shared with another database (e.g. the one extended() was
        # called on) whose own shared encoding must stay intact.
        self._relations = {
            name: rel.with_mirror(None)
            for name, rel in self._relations.items()
        }
        self.shared_dictionary = shared_dictionary_encode(self._relations)
        #: Whether the last construction step kept every existing code
        #: (True only for databases built by the code-stable path of
        #: :meth:`apply`).
        self.encoded_incrementally = False
        #: Rows the last construction step pushed through the
        #: interpreter-level encoder.
        self.rows_encoded = (
            0 if self.shared_dictionary is None else len(self)
        )

    def advanced_by(self, delta) -> "EncodedDatabase":
        """A new encoded database with an effective ``delta`` applied,
        the shared encoding carried forward by the delta
        (:func:`~repro.data.columnar.carry_shared_encoding`).

        When every new domain value sorts after the dictionary's
        current maximum, the shared dictionary is *extended in place*
        — existing codes never renumber, untouched relations keep
        their columnar mirrors by object identity, and the delta's
        rows are spliced into the mutated relations' sorted mirrors.
        A value inside the existing order renumbers: a new dictionary,
        every mirror gathered into it on private relation copies.  The
        result's ``encoded_incrementally`` flag reports whether the
        codes stayed stable.
        """
        from repro.data.columnar import (
            carry_shared_encoding,
            common_dictionary,
        )

        out = object.__new__(EncodedDatabase)
        (
            out._relations,
            out.encoded_incrementally,
            out.rows_encoded,
        ) = carry_shared_encoding(
            self._relations, self._advanced_relations(delta), delta
        )
        out.shared_dictionary = common_dictionary(out._relations)
        return out

    def extended(
        self, extra: Mapping[str, Relation | Iterable[tuple]]
    ) -> "EncodedDatabase":
        """A new encoded database with additional (or replaced) relations."""
        merged: dict[str, Relation | Iterable[tuple]] = dict(
            self._relations
        )
        merged.update(extra)
        return EncodedDatabase(merged)
