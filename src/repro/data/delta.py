"""First-class database mutations: :class:`Delta`.

The paper's model preprocesses a *static* database; the serving layer
(:mod:`repro.session`) keeps long-lived structures warm across
requests, which makes mutations a real concern: a tuple insert must
extend the shared dictionary encoding and invalidate exactly the
cached artifacts whose decomposition touches the mutated relation —
no more (stale answers) and no less (needless rebuilds).

A :class:`Delta` is the unit of that maintenance: per-relation insert
and delete sets, validated against the database they apply to.  The
application order within one delta is *deletes first, then inserts*,
so a row named in both ends up present.  Deltas never add or remove
relation symbols — the query workload's schema is fixed at serving
time — and applying one never mutates the original database:
:meth:`Database.apply <repro.data.database.Database.apply>` returns a
new database sharing every untouched relation object (and therefore
its sorted/columnar caches) with the old one.

    >>> from repro.data.delta import Delta
    >>> delta = Delta(inserts={"R": {(9, 9)}}, deletes={"R": [(1, 2)]})
    >>> sorted(delta.touched)
    ['R']
    >>> sorted(delta.apply_to("R", {(1, 2), (3, 4)}))
    [(3, 4), (9, 9)]
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import DatabaseError


def _normalize(rows_by_relation) -> dict[str, frozenset[tuple]]:
    out: dict[str, frozenset[tuple]] = {}
    for name, rows in dict(rows_by_relation or {}).items():
        frozen = frozenset(tuple(row) for row in rows)
        if frozen:
            out[name] = frozen
    return out


class Delta:
    """A set of tuple inserts and deletes, grouped by relation.

    Args:
        inserts: mapping of relation name to an iterable of rows to add.
        deletes: mapping of relation name to an iterable of rows to
            remove (removing an absent row is a no-op).

    Rows are normalized to tuples and empty per-relation entries are
    dropped, so :attr:`touched` names exactly the relations whose
    content can change.  Instances are immutable and hashable.
    """

    __slots__ = ("inserts", "deletes")

    def __init__(
        self,
        inserts: Mapping[str, Iterable[tuple]] | None = None,
        deletes: Mapping[str, Iterable[tuple]] | None = None,
    ):
        object.__setattr__(self, "inserts", _normalize(inserts))
        object.__setattr__(self, "deletes", _normalize(deletes))

    def __setattr__(self, name, value):
        raise AttributeError("Delta is immutable")  # repro: noqa[EXC-TAXONOMY] -- Python data-model contract for immutability

    def __reduce__(self):
        # __slots__ plus the raising __setattr__ above breaks default
        # unpickling and copying (both restore state attribute by
        # attribute); rebuild through __init__ instead.
        return (self.__class__, (self.inserts, self.deletes))

    @classmethod
    def coerce(cls, value) -> "Delta":
        """``value`` as a :class:`Delta` (accepts a mapping with
        ``inserts``/``deletes`` keys, the JSON-ish spelling)."""
        if isinstance(value, Delta):
            return value
        if isinstance(value, Mapping) and set(value) <= {
            "inserts",
            "deletes",
        }:
            return cls(
                inserts=value.get("inserts"),
                deletes=value.get("deletes"),
            )
        raise DatabaseError(
            f"cannot interpret {value!r} as a Delta (pass a Delta or "
            "a mapping with 'inserts'/'deletes' keys)"
        )

    # -- shape -------------------------------------------------------------

    @property
    def touched(self) -> frozenset[str]:
        """Names of relations this delta can change."""
        return frozenset(self.inserts) | frozenset(self.deletes)

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    def size(self) -> int:
        """Total number of rows named (inserts plus deletes)."""
        return sum(len(rows) for rows in self.inserts.values()) + sum(
            len(rows) for rows in self.deletes.values()
        )

    # -- application -------------------------------------------------------

    def apply_to(self, name: str, tuples) -> frozenset[tuple]:
        """``name``'s new tuple set: deletes applied first, then
        inserts (a row in both ends up present)."""
        out = frozenset(tuples)
        deletes = self.deletes.get(name)
        if deletes:
            out = out - deletes
        inserts = self.inserts.get(name)
        if inserts:
            out = out | inserts
        return out

    def validate_against(self, database) -> None:
        """Raise :class:`~repro.errors.DatabaseError` when this delta
        names an unknown relation or a row of the wrong arity."""
        for side in (self.inserts, self.deletes):
            for name, rows in side.items():
                relation = database[name]  # DatabaseError when unknown
                for row in rows:
                    if len(row) != relation.arity:
                        raise DatabaseError(
                            f"delta row {row} for {name} does not have "
                            f"arity {relation.arity}"
                        )

    def effective_against(self, database) -> "Delta":
        """This delta minimized against ``database``: inserts of rows
        already present and deletes of rows already absent are dropped
        (per relation, the canonical ``new - old`` / ``old - new``
        form; a row named on both sides ends up present, so it is an
        insert when absent and nothing when present).  An
        *effectively* empty delta therefore comes back as ``Delta()``
        — the store uses that to make no-op applies skip the version
        bump instead of invalidating pinned views.

        Costs one membership test per named row: each difference or
        intersection below iterates the delta's side, never the
        relation.
        """
        inserts: dict[str, frozenset[tuple]] = {}
        deletes: dict[str, frozenset[tuple]] = {}
        for name, rows in self.inserts.items():
            inserts[name] = rows - database[name].tuples
        for name, rows in self.deletes.items():
            deletes[name] = (
                rows & database[name].tuples
            ) - self.inserts.get(name, frozenset())
        return Delta(inserts=inserts, deletes=deletes)

    # -- wire / log form ---------------------------------------------------

    def as_dict(self) -> dict:
        """A JSON-ready spelling (rows as sorted lists), the inverse of
        :meth:`coerce` — used by the wire ``apply`` op and the WAL."""
        def side(rows_by_relation):
            return {
                name: sorted(
                    (list(row) for row in rows), key=repr
                )
                for name, rows in sorted(rows_by_relation.items())
            }

        out: dict = {}
        if self.inserts:
            out["inserts"] = side(self.inserts)
        if self.deletes:
            out["deletes"] = side(self.deletes)
        return out

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Delta):
            return (
                self.inserts == other.inserts
                and self.deletes == other.deletes
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.inserts.items()),
                frozenset(self.deletes.items()),
            )
        )

    def __repr__(self) -> str:
        parts = []
        for label, side in (
            ("inserts", self.inserts),
            ("deletes", self.deletes),
        ):
            if side:
                inner = ", ".join(
                    f"{name}: {len(rows)}"
                    for name, rows in sorted(side.items())
                )
                parts.append(f"{label}={{{inner}}}")
        return f"Delta({', '.join(parts) or 'empty'})"


__all__ = ["Delta"]
