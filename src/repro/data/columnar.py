"""Dictionary-encoded columnar relations (the NumpyEngine substrate).

The paper's word-RAM model assumes the active domain is ``[n]``; this
module realizes that assumption for arbitrary (hashable, mutually
comparable) Python constants.  A :class:`Dictionary` encodes the active
domain of a table once into dense ``int64`` codes whose numeric order
equals the value order, so every order-sensitive operation downstream
(lexicographic sort, group boundaries, binary search) can run on
contiguous integer arrays and still agree bit-for-bit with the
pure-Python engine.

A :class:`ColumnarTable` stores the rows of one table as an ``(n, k)``
``int64`` code matrix sharing a single dictionary across columns.  The
vectorized algorithms (:mod:`repro.engine.numpy_engine`) never put raw
Python values into numpy arrays — only codes — so arbitrary constants
(tuples, strings, Fractions) round-trip exactly.

This module imports numpy lazily: importing :mod:`repro.data` stays
possible on interpreters without numpy, and the engine registry gates
the numpy engine on :func:`numpy_available`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Collection, Iterable, Sequence
from itertools import chain

try:  # gated dependency: the container image may lack numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via numpy_available()
    _np = None

#: Largest key span we allow before densifying packed keys.  Staying
#: well under 2**63 keeps every Horner step exact in int64.
_MAX_SAFE = 2**62


def numpy_available() -> bool:
    """Whether the numpy backend can be used at all."""
    return _np is not None


def _require_numpy():
    if _np is None:  # pragma: no cover
        raise RuntimeError("numpy is not available in this environment")  # repro: noqa[EXC-TAXONOMY] -- environment precondition, not a query failure
    return _np


class Dictionary:
    """An order-preserving encoding of an active domain.

    ``values`` is the sorted list of distinct constants; the code of a
    value is its rank, so ``code(a) < code(b)`` iff ``a < b``.  Building
    one requires the constants to be mutually comparable — the same
    assumption the rest of the pipeline (tries, counting forests) already
    makes; the numpy engine falls back to the Python engine when a domain
    violates it.
    """

    __slots__ = ("values", "_code")

    def __init__(self, values: Iterable):
        self.values: list = sorted(set(values))
        self._code: dict = {v: i for i, v in enumerate(self.values)}

    @classmethod
    def from_sorted(cls, values: list) -> "Dictionary":
        """Wrap an *already sorted, duplicate-free* value list.

        :meth:`renumbered` merges two sorted runs into one; re-sorting (and
        re-deduplicating) the result would cost O(n log n) for nothing.
        The caller owns the invariant.
        """
        self = object.__new__(cls)
        self.values = values
        self._code = dict(zip(values, range(len(values))))
        return self

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value) -> bool:
        return value in self._code

    def code(self, value) -> int:
        """The code of ``value``, or ``-1`` when absent."""
        return self._code.get(value, -1)

    def decode(self, code: int):
        return self.values[code]

    def extend(self, values: Iterable) -> bool:
        """Grow the domain *in place* without renumbering any code.

        Order preservation pins every code to its value's rank, so new
        values can only be absorbed code-stably when they all sort
        *after* the current maximum — then they are appended and every
        existing code (and every columnar table sharing this
        dictionary) stays valid.  Returns ``False`` (leaving the
        dictionary untouched) when a new value lands inside the
        existing order, or the combined domain stops being totally
        orderable: the caller must re-encode from scratch.
        """
        try:
            fresh = sorted(
                {v for v in values if v not in self._code}
            )
            if not fresh:
                return True
            if self.values and not (self.values[-1] < fresh[0]):
                return False
        except TypeError:
            return False
        base = len(self.values)
        self.values.extend(fresh)
        for offset, value in enumerate(fresh):
            self._code[value] = base + offset
        return True

    def renumbered(self, values: Iterable) -> tuple["Dictionary", object]:
        """A *new* dictionary over this domain plus ``values``, and
        the int64 array mapping this dictionary's codes into it.

        The path for values :meth:`extend` refuses — they land inside
        the existing order, so every code above them shifts.  Both
        value lists are already sorted: the union is one merge of two
        runs, and an old code moves up by the number of new values
        below it.  The remap is strictly increasing, so a sorted code
        matrix gathered through it stays sorted.  Raises ``TypeError``
        when the combined domain is not totally orderable.
        """
        np = _require_numpy()
        fresh = sorted({v for v in values if v not in self._code})
        merged = self.values + fresh
        merged.sort()  # two sorted runs: timsort merges, never re-sorts
        landing = np.fromiter(
            (bisect_left(self.values, v) for v in fresh),
            dtype=np.int64,
            count=len(fresh),
        )
        remap = np.arange(len(self.values), dtype=np.int64)
        remap += np.searchsorted(landing, remap, side="right")
        return Dictionary.from_sorted(merged), remap

    def remap_to(self, other: "Dictionary"):
        """An int64 array mapping this dictionary's codes into ``other``.

        Entry ``i`` is ``other``'s code for ``self.values[i]``, or ``-1``
        when the value is absent from ``other``.  Gathering through the
        result vectorizes cross-dictionary comparisons at per-*unique*
        -value cost instead of per-row cost.
        """
        np = _require_numpy()
        get = other._code.get
        return np.fromiter(
            (get(v, -1) for v in self.values),
            dtype=np.int64,
            count=len(self.values),
        )

    @staticmethod
    def merged(a: "Dictionary", b: "Dictionary") -> "Dictionary":
        """The dictionary over the union of two active domains."""
        if a is b:
            return a
        if not b.values:
            return a
        if not a.values:
            return b
        out = Dictionary(())
        out.values = sorted(set(a.values) | set(b.values))
        out._code = {v: i for i, v in enumerate(out.values)}
        return out


class ColumnarTable:
    """Rows of one table as a dictionary-encoded int64 code matrix.

    ``codes`` has shape ``(n_rows, arity)`` and is C-contiguous; all
    columns share ``dictionary``.  Rows are unique (set semantics, like
    :class:`~repro.joins.operators.Table`).
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes, dictionary: Dictionary):
        self.codes = codes
        self.dictionary = dictionary

    @classmethod
    def from_rows(
        cls,
        rows: Collection[tuple],
        arity: int,
        dictionary: Dictionary | None = None,
    ) -> "ColumnarTable":
        """Encode ``rows`` (unique tuples) into a code matrix, in the
        order ``rows`` iterates.

        The per-value loop runs inside ``fromiter``/``map``/``chain``,
        one dictionary probe per value and no interpreter frame per
        row.  Raises ``TypeError`` when the values are not mutually
        comparable (callers treat that as "fall back to the Python
        engine").
        """
        np = _require_numpy()
        if dictionary is None:
            dictionary = Dictionary(chain.from_iterable(rows))
        flat = np.fromiter(
            map(dictionary._code.__getitem__, chain.from_iterable(rows)),
            dtype=np.int64,
            count=len(rows) * arity,
        )
        return cls(flat.reshape(len(rows), arity), dictionary)

    @property
    def nrows(self) -> int:
        return self.codes.shape[0]

    @property
    def arity(self) -> int:
        return self.codes.shape[1]

    def to_rows(self) -> list[tuple]:
        """Decode back to Python tuples (row order preserved)."""
        values = self.dictionary.values
        arity = self.arity
        flat = [values[c] for c in self.codes.ravel().tolist()]
        return [
            tuple(flat[i : i + arity])
            for i in range(0, len(flat), arity)
        ]

    def decode_column(self, column: int) -> list:
        values = self.dictionary.values
        return [values[c] for c in self.codes[:, column].tolist()]

    def with_dictionary(self, dictionary: Dictionary) -> "ColumnarTable":
        """Re-express the codes in ``dictionary`` (a superset domain)."""
        if dictionary is self.dictionary:
            return self
        remap = self.dictionary.remap_to(dictionary)
        return ColumnarTable(remap[self.codes], dictionary)

    def lexsorted(self) -> "ColumnarTable":
        """The same rows in lexicographic order — the value order,
        since codes are order-preserving.  Relation mirrors are stored
        this way; :meth:`spliced` relies on it and preserves it."""
        np = _require_numpy()
        if self.arity == 0 or self.nrows < 2:
            return self
        order = np.lexsort(self.codes.T[::-1])
        return ColumnarTable(self.codes[order], self.dictionary)

    def spliced(self, inserts, deletes) -> "ColumnarTable":
        """A *new* lexsorted table: this one minus ``deletes`` plus
        ``inserts``.

        Both are code matrices over this table's dictionary;
        ``deletes`` rows must be present and ``inserts`` rows absent
        (an effective delta).  ``self`` must be lexsorted: each row's
        position is one ``searchsorted`` over jointly packed keys, and
        ``np.delete``/``np.insert`` copy into a fresh matrix, so the
        table a pinned snapshot still reads is never written.
        """
        np = _require_numpy()
        gone = len(deletes)
        keys, probes = pack_pair(
            self.codes,
            np.concatenate([deletes, inserts], axis=0),
            max(len(self.dictionary), 1),
        )
        codes = self.codes
        if gone:
            at = np.searchsorted(keys, probes[:gone])
            codes = np.delete(codes, at, axis=0)
            keys = np.delete(keys, at)
        if len(inserts):
            order = np.argsort(probes[gone:], kind="stable")
            at = np.searchsorted(keys, probes[gone:][order])
            codes = np.insert(codes, at, inserts[order], axis=0)
        return ColumnarTable(codes, self.dictionary)


def common_dictionary(relations) -> Dictionary | None:
    """The one dictionary every mirror of ``relations`` (name ->
    Relation) is encoded under; ``None`` when a mirror is missing or
    they disagree."""
    mirrors = [rel._columnar for rel in relations.values()]
    if not mirrors or any(m is None for m in mirrors):
        return None
    first = mirrors[0].dictionary
    if any(m.dictionary is not first for m in mirrors):
        return None
    return first


def shared_dictionary_encode(relations) -> Dictionary | None:
    """Encode ``relations`` (name -> Relation) against one dictionary.

    Builds a single order-preserving :class:`Dictionary` over the union
    of the relations' active domains and installs a lexsorted
    :class:`ColumnarTable` mirror sharing it on every relation, so every
    downstream cross-table operation (semijoin, join, counting-forest
    remap) short-circuits its dictionary merge on object identity
    instead of merging + remapping per operation.  Rows are encoded in
    set order and sorted as codes; no sorted list of Python tuples is
    ever built.

    Idempotent: when every relation already carries a mirror over one
    common dictionary, that dictionary is returned untouched.  Returns
    ``None`` (leaving the relations as they were) when numpy is missing
    or the combined domain is not totally orderable — the engines then
    fall back per operation exactly as before.
    """
    if _np is None:
        return None
    relations = dict(relations)
    shared = common_dictionary(relations)
    if shared is not None:
        return shared
    try:
        dictionary = Dictionary(
            chain.from_iterable(
                chain.from_iterable(
                    rel.tuples for rel in relations.values()
                )
            )
        )
        encoded = {
            name: ColumnarTable.from_rows(
                rel.tuples, rel.arity, dictionary
            ).lexsorted()
            for name, rel in relations.items()
        }
    except TypeError:
        return None
    for name, rel in relations.items():
        rel._columnar = encoded[name]
    return dictionary


def carry_shared_encoding(old, new, delta):
    """Move a shared encoding forward by ``delta`` instead of
    re-deriving it: ``(relations, code_stable, rows_encoded)``.

    ``old`` and ``new`` (name -> Relation) are the content before and
    after the mutation: untouched relations are the same objects in
    both, touched ones are fresh in ``new`` and carry no mirror yet.
    ``delta`` must be *effective* against ``old`` (inserted rows
    absent, deleted rows present).  Only the delta's rows are encoded
    in the interpreter (``rows_encoded`` counts them); every old
    mirror is spliced or gathered as a whole array, and none is
    written — the old snapshot keeps reading its own.

    * **Code-stable** — every new value sorts after the dictionary's
      maximum: the dictionary is extended in place
      (:meth:`Dictionary.extend`), ``new`` itself comes back with the
      touched mirrors spliced (:meth:`ColumnarTable.spliced`), and
      untouched mirrors stay valid by identity.
    * **Renumbering** — a new value lands inside the order: a new
      dictionary (:meth:`Dictionary.renumbered`) and one gather per
      mirror, on private relation copies because the shared untouched
      relations must keep their old-dictionary mirrors for the old
      snapshot.
    * **From scratch** — there is no common encoding to carry, or the
      domain stops being totally orderable: private copies through
      :func:`shared_dictionary_encode` (which leaves them without
      mirrors in the unorderable case).
    """
    dictionary = None if _np is None else common_dictionary(old)
    remap = None
    if dictionary is not None:
        values = set(
            chain.from_iterable(
                chain.from_iterable(delta.inserts.values())
            )
        )
        if not dictionary.extend(values):
            try:
                dictionary, remap = dictionary.renumbered(values)
            except TypeError:
                dictionary = None
    if dictionary is None:
        private = {
            name: rel.with_mirror(None) for name, rel in new.items()
        }
        encoded = shared_dictionary_encode(private) is not None
        return (
            private,
            False,
            sum(map(len, private.values())) if encoded else 0,
        )

    def carried(name):
        mirror = old[name]._columnar
        if remap is not None:
            mirror = ColumnarTable(remap[mirror.codes], dictionary)
        if name in delta.touched:
            arity = mirror.arity

            def encoded(side):
                return ColumnarTable.from_rows(
                    side.get(name, ()), arity, dictionary
                ).codes

            mirror = mirror.spliced(
                encoded(delta.inserts), encoded(delta.deletes)
            )
        return mirror

    if remap is None:
        for name in delta.touched:
            new[name]._columnar = carried(name)
        return new, True, delta.size()
    return (
        {name: rel.with_mirror(carried(name)) for name, rel in new.items()},
        False,
        delta.size(),
    )


def pack_keys(columns: Sequence, card: int):
    """Collapse parallel code columns into one int64 key per row.

    ``card`` bounds every code strictly (all codes in ``[0, card)``).
    Keys preserve lexicographic order and equality of the column tuples.
    When the mixed-radix span would overflow int64 the keys are densified
    with ``np.unique`` (whose inverse is rank-ordered, so order is still
    preserved) before the next Horner step.
    """
    np = _require_numpy()
    if not columns:
        raise ValueError("pack_keys needs at least one column")  # repro: noqa[EXC-TAXONOMY] -- programmer contract of the packing helper
    key = np.ascontiguousarray(columns[0], dtype=np.int64)
    span = max(card, 1)
    for column in columns[1:]:
        if span > _MAX_SAFE // max(card, 1):
            uniques, key = np.unique(key, return_inverse=True)
            key = key.astype(np.int64, copy=False)
            span = max(len(uniques), 1)
            if span > _MAX_SAFE // max(card, 1):  # pragma: no cover
                raise OverflowError("key space exceeds int64")  # repro: noqa[EXC-TAXONOMY] -- int64 capacity guard; the builtin is the signal
        key = key * card + np.asarray(column, dtype=np.int64)
        span = span * max(card, 1)
    return key


def pack_pair(a, b, card: int):
    """Pack two code matrices over the *same* dictionary jointly.

    Returns ``(keys_a, keys_b)`` that are mutually comparable: equal row
    tuples get equal keys and lexicographic row order maps to numeric key
    order across both arrays (joint densification keeps this true even
    when the plain mixed-radix product would overflow).
    """
    np = _require_numpy()
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("pack_pair needs two matrices of equal width")  # repro: noqa[EXC-TAXONOMY] -- programmer contract of the packing helper
    width = a.shape[1]
    if width == 0:
        return (
            np.zeros(a.shape[0], dtype=np.int64),
            np.zeros(b.shape[0], dtype=np.int64),
        )
    stacked = np.concatenate([a, b], axis=0)
    keys = pack_keys(
        [stacked[:, i] for i in range(width)], card
    )
    return keys[: a.shape[0]], keys[a.shape[0] :]
