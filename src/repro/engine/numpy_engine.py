"""Vectorized engine over dictionary-encoded columnar storage.

Every operator works on ``int64`` code matrices (:mod:`repro.data.columnar`)
instead of frozensets of tuples: joins become ``searchsorted`` range
lookups over packed keys, semijoins become ``isin`` masks, and the
counting-forest build becomes one ``lexsort`` plus ``cumsum`` per bag.
Because the dictionary encoding preserves the value order, every result
— row sets, group contents, enumeration order — is bit-identical to the
:class:`~repro.engine.python_engine.PythonEngine`.

The engine degrades gracefully rather than changing semantics:

* domains that cannot be totally ordered (``TypeError`` while encoding)
  fall back to the Python engine per operation;
* counting-forest builds whose weights could overflow ``int64`` fall
  back per bag (the Python path uses arbitrary-precision ints);
* batch access falls back per call when the answer count or the packed
  search keys would not fit in ``int64``.

Reads lower by their shape, not by a tuned size: a point read (a batch
of exactly one index or row) is one scalar descent that bisects the CSR
arrays of :class:`CsrBagIndex` in place, decoding one value per level;
a batch of two or more descends level-synchronously in vectorized
``searchsorted`` calls.  Both give the Python engine's answers.

Bag tables come out of :meth:`NumpyEngine.join` lexsorted, which is
what lets a write move them forward instead of rebuilding them: the
delta's rows are spliced into the sorted table
(:meth:`NumpyEngine.spliced_table`) and the bag's CSR arrays are patched
group by group on fresh arrays (:meth:`NumpyEngine.patch_bag_index`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.data.columnar import (
    _MAX_SAFE,
    ColumnarTable,
    Dictionary,
    carry_shared_encoding,
    pack_keys,
    pack_pair,
    shared_dictionary_encode,
)
from repro.engine.base import Engine, rank_walk
from repro.engine.python_engine import PythonEngine


def _columnar(table) -> ColumnarTable:
    """The (cached) columnar encoding of a Table; TypeError if unsortable."""
    ct = table._columnar
    if ct is None:
        ct = ColumnarTable.from_rows(table.rows, len(table.schema))
        table._columnar = ct
    return ct


def _relation_columnar(relation) -> ColumnarTable:
    ct = relation._columnar
    if ct is None:
        ct = ColumnarTable.from_rows(
            relation.tuples, relation.arity
        ).lexsorted()
        relation._columnar = ct
    return ct


def _expand_matches(rows, lo, counts, order):
    """Indices realizing every (probe row, matching sorted-key row) pair.

    ``lo[r]``/``counts[r]`` delimit probe row ``r``'s match range in the
    key-sorted permutation ``order``.  Returns ``(rep, idx)`` where
    ``rep`` repeats each probe row once per match and ``idx`` is the
    matching row in the original (unsorted) array.
    """
    total = int(counts.sum())
    rep = rows.repeat(counts)
    starts = np.repeat(lo, counts)
    offs = np.arange(total) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return rep, order[starts + offs]


def _unique_rows(codes, card: int):
    """Distinct rows of a code matrix (order not specified)."""
    if codes.shape[1] == 0:
        return codes[:1]
    keys = pack_keys(
        [codes[:, i] for i in range(codes.shape[1])], card
    )
    _, idx = np.unique(keys, return_index=True)
    return codes[idx]


def _is_lexsorted(codes, card: int) -> bool:
    """Whether the rows of a code matrix are strictly ascending."""
    if codes.shape[0] < 2 or codes.shape[1] == 0:
        return codes.shape[0] < 2
    keys = pack_keys(
        [codes[:, i] for i in range(codes.shape[1])], max(card, 1)
    )
    return bool(np.all(keys[1:] > keys[:-1]))


def _found(keys, probes):
    """Which ``probes`` occur in the ascending key array ``keys``."""
    if not len(keys):
        return np.zeros(len(probes), dtype=bool)
    at = np.searchsorted(keys, probes)
    clipped = np.minimum(at, len(keys) - 1)
    return (at < len(keys)) & (keys[clipped] == probes)


def _group_totals(aux, sub):
    """``aux.totals`` at each row of ``sub`` (interface codes in
    ``aux``'s dictionary, ``-1`` for a value it lacks); 0 where no such
    group exists."""
    if not aux.group_codes.shape[0]:
        return np.zeros(sub.shape[0], dtype=aux.totals.dtype)
    valid = (sub >= 0).all(axis=1)
    ka, kb = pack_pair(
        np.where(sub < 0, 0, sub),
        aux.group_codes,
        max(len(aux.dictionary), 1),
    )
    at = np.searchsorted(kb, ka)
    clipped = np.minimum(at, len(kb) - 1)
    match = valid & (at < len(kb)) & (kb[clipped] == ka)
    return np.where(match, aux.totals[clipped], 0)


class CsrBagIndex:
    """The numpy engine's bag index: CSR arrays, and nothing else.

    Groups are lexicographically sorted by interface codes;
    ``offsets[g]:offsets[g+1]`` slices the flat candidate arrays.
    ``cum_before[t]`` is the weight strictly before candidate ``t``
    within its group.  Arrays are int64 unless the build widened the
    weights to object dtype.  The :class:`~repro.engine.base.BagIndex`
    calls key by codes of ``dictionary``: a step bisects
    ``group_codes``, then a window of ``cum_before`` (access) or
    ``values_flat`` (rank), and decodes one value; a group window is
    the group's slice of ``values_flat``, decoded through
    ``dictionary.values``.
    """

    __slots__ = (
        "dictionary", "group_codes", "offsets", "values_flat",
        "weights_flat", "cum_before", "totals", "max_total", "_shifted",
        "_val_shifted", "_heads", "_last", "_count", "_domain", "_code",
        "_scalars",
    )

    def __init__(
        self, dictionary, group_codes, offsets, values_flat, weights_flat,
        cum_before, totals,
    ):
        self.dictionary = dictionary
        self.group_codes = group_codes
        self.offsets = offsets
        self.values_flat = values_flat
        self.weights_flat = weights_flat
        self.cum_before = cum_before
        self.totals = totals
        self.max_total = int(totals.max()) if len(totals) else 0
        self._shifted = None
        self._val_shifted = None
        columns = [memoryview(column) for column in group_codes.T]
        self._heads = columns[:-1]
        self._last = columns[-1] if columns else None
        self._count = group_codes.shape[0]
        # Dictionary.extend() grows both in place.
        self._domain, self._code = dictionary.values, dictionary._code
        # What the scalar descent indexes: (offsets, values_flat,
        # weights_flat, cum_before, totals), each as a memoryview, or
        # as a list made once where object dtype (counts beyond int64)
        # leaves no buffer to view.
        self._scalars = tuple(
            array.tolist() if array.dtype == np.dtype(object)
            else memoryview(array)
            for array in (offsets, values_flat, weights_flat, cum_before,
                          totals)
        )

    aux = property(lambda self: self)

    def _group(self, interface) -> int:
        """The group at interface codes ``interface``, or -1 (every
        column but the last narrows the range; the last is distinct)."""
        lo, hi = 0, self._count
        if self._heads:
            for column, code in zip(self._heads, interface):
                lo = bisect_left(column, code, lo, hi)
                hi = bisect_right(column, code, lo, hi)
        last = self._last
        if last is None:
            return lo if lo < hi else -1
        code = interface[-1]
        lo = bisect_left(last, code, lo, hi)
        return lo if lo < hi and last[lo] == code else -1

    def encode(self, values: tuple) -> tuple:
        """The codes of ``values``; ``KeyError`` for a value not in
        the dictionary."""
        code = self._code
        return tuple([code[value] for value in values])

    def total(self, interface: tuple) -> int:
        try:
            group = self._group(self.encode(interface))
        except KeyError:
            return 0
        return self._scalars[-1][group] if group >= 0 else 0

    def access_step(self, interface, remaining: int, live: int):
        offsets, values, weights, cumulative, totals = self._scalars
        group = self._group(interface)
        others = live // totals[group]
        j = bisect_right(
            cumulative, remaining // others, offsets[group],
            offsets[group + 1],
        ) - 1
        code = values[j]
        return (
            code, self._domain[code], remaining - others * cumulative[j],
            others * weights[j],
        )

    def group_window(self, interface):
        offsets = self._scalars[0]
        group = self._group(interface)
        return (
            self._scalars[1], offsets[group], offsets[group + 1],
            self._domain,
        )

    def rank_step(self, interface, value, rank: int, live: int):
        code = self._code.get(value)
        group = self._group(interface)
        if code is None or group < 0:
            return None
        offsets, values, weights, cumulative, totals = self._scalars
        end = offsets[group + 1]
        j = bisect_left(values, code, offsets[group], end)
        if j == end or values[j] != code:
            return None
        others = live // totals[group]
        return code, rank + others * cumulative[j], others * weights[j]

    def cum_shifted(self):
        """``cum_before`` offset by ``group_id * (max_total + 1)``.

        Makes the per-group ascending runs globally ascending, so one
        ``searchsorted`` answers a different within-group query per row.
        """
        if self._shifted is None:
            stride = self.max_total + 1
            counts = np.diff(self.offsets)
            gid = np.repeat(np.arange(len(counts)), counts)
            self._shifted = self.cum_before + gid * stride
        return self._shifted

    def values_shifted(self):
        """``values_flat`` offset by ``group_id * len(dictionary)``.

        The same trick as :meth:`cum_shifted`, for inverse access: the
        per-group ascending candidate-code runs become one globally
        ascending array, so a single ``searchsorted`` locates a
        different (group, value) pair per row.
        """
        if self._val_shifted is None:
            stride = max(len(self.dictionary), 1)
            counts = np.diff(self.offsets)
            gid = np.repeat(np.arange(len(counts)), counts)
            self._val_shifted = self.values_flat + gid * stride
        return self._val_shifted


class NumpyEngine(Engine):
    """Batch execution over dictionary-encoded int64 columns."""

    name = "numpy"

    def __init__(self) -> None:
        super().__init__()
        self._fallback = PythonEngine()

    # -- relational operators ---------------------------------------------

    def from_atom(self, atom, relation):
        from repro.joins.operators import Table

        try:
            ct = _relation_columnar(relation)
        except TypeError:
            return self._fallback.from_atom(atom, relation)
        schema: list[str] = []
        first: list[int] = []
        for i, var in enumerate(atom.variables):
            if var not in schema:
                schema.append(var)
                first.append(i)
        codes = ct.codes
        if len(schema) != len(atom.variables):
            mask = np.ones(codes.shape[0], dtype=bool)
            for var, pos in zip(schema, first):
                for j, other in enumerate(atom.variables):
                    if other == var and j != pos:
                        mask &= codes[:, pos] == codes[:, j]
            codes = codes[mask]
        sub = np.ascontiguousarray(codes[:, first])
        return Table._from_columnar(
            tuple(schema), ColumnarTable(sub, ct.dictionary)
        )

    def project(self, table, variables, positions):
        from repro.joins.operators import Table

        if not positions:
            return Table(variables, [()] if len(table) else ())
        try:
            ct = _columnar(table)
        except TypeError:
            return self._fallback.project(table, variables, positions)
        sub = _unique_rows(
            np.ascontiguousarray(ct.codes[:, positions]),
            max(len(ct.dictionary), 1),
        )
        return Table._from_columnar(
            variables, ColumnarTable(sub, ct.dictionary)
        )

    def select(self, table, assignment):
        from repro.joins.operators import Table

        bound = [
            (i, assignment[v])
            for i, v in enumerate(table.schema)
            if v in assignment
        ]
        if not bound:
            return table
        try:
            ct = _columnar(table)
        except TypeError:
            return self._fallback.select(table, assignment)
        mask = np.ones(ct.nrows, dtype=bool)
        for position, value in bound:
            code = ct.dictionary.code(value)
            if code < 0:
                return Table(table.schema, ())
            mask &= ct.codes[:, position] == code
        return Table._from_columnar(
            table.schema,
            ColumnarTable(ct.codes[mask], ct.dictionary),
        )

    def semijoin(self, left, right):
        from repro.joins.operators import Table

        shared = [v for v in left.schema if v in right.schema]
        if not shared:
            return left if len(right) else Table(left.schema, ())
        try:
            lct, rct = _columnar(left), _columnar(right)
            merged = Dictionary.merged(lct.dictionary, rct.dictionary)
        except TypeError:
            return self._fallback.semijoin(left, right)
        lcols = lct.with_dictionary(merged).codes[
            :, left._positions(shared)
        ]
        rcols = rct.with_dictionary(merged).codes[
            :, right._positions(shared)
        ]
        ka, kb = pack_pair(lcols, rcols, max(len(merged), 1))
        mask = np.isin(ka, kb)
        return Table._from_columnar(
            left.schema, ColumnarTable(lct.codes[mask], lct.dictionary)
        )

    def natural_join(self, left, right):
        from repro.joins.operators import Table

        shared = [v for v in left.schema if v in right.schema]
        extra = [v for v in right.schema if v not in left.schema]
        out_schema = left.schema + tuple(extra)
        try:
            lct, rct = _columnar(left), _columnar(right)
            merged = Dictionary.merged(lct.dictionary, rct.dictionary)
        except TypeError:
            return self._fallback.natural_join(left, right)
        lcodes = lct.with_dictionary(merged).codes
        rcodes = rct.with_dictionary(merged).codes
        ka, kb = pack_pair(
            lcodes[:, left._positions(shared)],
            rcodes[:, right._positions(shared)],
            max(len(merged), 1),
        )
        order = np.argsort(kb, kind="stable")
        kb_sorted = kb[order]
        lo = np.searchsorted(kb_sorted, ka, side="left")
        hi = np.searchsorted(kb_sorted, ka, side="right")
        rep, ridx = _expand_matches(
            np.arange(lcodes.shape[0]), lo, hi - lo, order
        )
        out = np.concatenate(
            [
                lcodes[rep],
                rcodes[ridx][:, right._positions(extra)],
            ],
            axis=1,
        )
        return Table._from_columnar(
            out_schema,
            ColumnarTable(np.ascontiguousarray(out), merged),
        )

    def join(self, tables, variable_order):
        from repro.joins.operators import Table

        variable_order = list(variable_order)
        covered = {v for table in tables for v in table.schema}
        if set(variable_order) != covered:
            raise ValueError(
                "variable order must cover exactly the joined variables"
            )
        if not tables:
            return Table((), [()])
        try:
            cts = [_columnar(table) for table in tables]
            merged = cts[0].dictionary
            for ct in cts[1:]:
                merged = Dictionary.merged(merged, ct.dictionary)
        except TypeError:
            return self._fallback.join(tables, variable_order)
        mats = [ct.with_dictionary(merged).codes for ct in cts]
        card = max(len(merged), 1)
        col_of = [
            {v: i for i, v in enumerate(table.schema)}
            for table in tables
        ]
        frontier = None
        bound_index: dict[str, int] = {}
        for v in variable_order:
            parts = [t for t in range(len(tables)) if v in col_of[t]]
            if frontier is None:
                # First variable: sorted intersection of the candidate
                # value sets of every participating table.
                cand = None
                for t in parts:
                    u = np.unique(mats[t][:, col_of[t][v]])
                    cand = (
                        u
                        if cand is None
                        else self.intersect_sorted(cand, u)
                    )
                frontier = cand.reshape(-1, 1)
                bound_index[v] = 0
                continue
            # Generic Join's adaptive probing, batched: every participant
            # reports its per-prefix candidate count, each frontier row
            # expands from its *smallest* candidate list, and the other
            # participants filter the result.  Per-row (not per-table)
            # choice is what preserves the worst-case optimal bound.
            lookups = []
            count_columns = []
            for t in parts:
                key_vars = [
                    u for u in tables[t].schema if u in bound_index
                ]
                cols = [col_of[t][u] for u in key_vars] + [col_of[t][v]]
                proj = _unique_rows(
                    np.ascontiguousarray(mats[t][:, cols]), card
                )
                fkeys = np.ascontiguousarray(
                    frontier[:, [bound_index[u] for u in key_vars]]
                )
                ka, kb = pack_pair(fkeys, proj[:, :-1], card)
                order = np.argsort(kb, kind="stable")
                kb_sorted = kb[order]
                lo = np.searchsorted(kb_sorted, ka, side="left")
                hi = np.searchsorted(kb_sorted, ka, side="right")
                lookups.append((proj, order, lo))
                count_columns.append(hi - lo)
            counts_matrix = np.stack(count_columns, axis=1)
            choice = np.argmin(counts_matrix, axis=1)
            width = frontier.shape[1]
            chunks = []
            reps = []
            for p, (proj, order, lo) in enumerate(lookups):
                rows = np.flatnonzero(choice == p)
                if not len(rows):
                    continue
                counts = counts_matrix[rows, p]
                if not counts.sum():
                    continue
                rep, pidx = _expand_matches(
                    rows, lo[rows], counts, order
                )
                reps.append(rep)
                chunks.append(
                    np.concatenate(
                        [
                            frontier[rep],
                            proj[pidx, -1].reshape(-1, 1),
                        ],
                        axis=1,
                    )
                )
            if len(chunks) > 1:
                # Each frontier row expanded from one participant, so a
                # stable sort by frontier row restores the lexicographic
                # order that every single-participant level keeps.
                order = np.argsort(np.concatenate(reps), kind="stable")
                frontier = np.concatenate(chunks, axis=0)[order]
            elif chunks:
                frontier = chunks[0]
            else:
                frontier = np.empty((0, width + 1), dtype=np.int64)
            bound_index[v] = width
            for t in parts:
                if len(parts) == 1 or not frontier.shape[0]:
                    break
                fvars = [u for u in tables[t].schema if u in bound_index]
                tproj = _unique_rows(
                    np.ascontiguousarray(
                        mats[t][:, [col_of[t][u] for u in fvars]]
                    ),
                    card,
                )
                fcols = np.ascontiguousarray(
                    frontier[:, [bound_index[u] for u in fvars]]
                )
                ka, kb = pack_pair(fcols, tproj, card)
                frontier = frontier[np.isin(ka, kb)]
        return Table._from_columnar(
            tuple(variable_order),
            ColumnarTable(np.ascontiguousarray(frontier), merged),
        )

    # -- ordering ----------------------------------------------------------

    def sorted_rows(self, table):
        try:
            ct = _columnar(table)
        except TypeError:
            return self._fallback.sorted_rows(table)
        return ct.lexsorted().to_rows()

    def intersect_sorted(self, left, right):
        if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
            return np.intersect1d(left, right, assume_unique=True)
        return self._fallback.intersect_sorted(left, right)

    # -- counting forest ---------------------------------------------------

    def build_bag_index(self, table, child_slots, projected):
        try:
            ct = _columnar(table)
        except TypeError:
            return self._fallback.build_bag_index(
                table, child_slots, projected
            )
        n, arity = ct.codes.shape
        k = arity - 1

        # Weight bound: a group total is at most n times the product of
        # the children's maximal totals.  Weights that could overflow
        # int64 switch to an object-dtype column of Python big ints —
        # the lexsort/cumsum build stays vectorized (arithmetic widens,
        # structure does not), and the per-call guards in batch access
        # still route such bags to the scalar walk.
        bound = 1
        use_object = False
        for child, _positions in child_slots:
            if child.aux is None:
                return self._fallback.build_bag_index(
                    table, child_slots, projected
                )
            # An object-dtype child forces object weights here too:
            # multiplying its totals into an int64 column is a numpy
            # casting error, even when this bag's own bound is small
            # (the child's bound is conservative — a selective join
            # can leave its exact totals tiny).
            if child.aux.totals.dtype == np.dtype(object):
                use_object = True
            bound *= max(child.aux.max_total, 1)
            if bound * max(n, 1) >= _MAX_SAFE:
                use_object = True

        weights = np.ones(n, dtype=object if use_object else np.int64)
        for child, positions in child_slots:
            aux = child.aux
            sub = np.ascontiguousarray(ct.codes[:, positions])
            if ct.dictionary is not aux.dictionary and positions:
                remap = ct.dictionary.remap_to(aux.dictionary)
                sub = remap[sub]
            weights *= _group_totals(aux, sub)
        if projected:
            # Existence suffices below a projected variable (Theorem 50).
            weights = (weights > 0).astype(np.int64)

        keep = weights > 0
        codes = ct.codes[keep]
        weights = weights[keep]
        m = codes.shape[0]

        # Group by interface, order by bag-variable code: one lexsort
        # (codes are order-preserving, so this is the value order), then
        # prefix sums per group via a single cumsum.  Bag tables built
        # by this engine already come sorted (see join), so the
        # lexsort only runs for tables that arrive from elsewhere.
        if not _is_lexsorted(codes, len(ct.dictionary)):
            order = np.lexsort(
                tuple(codes[:, c] for c in range(arity - 1, -1, -1))
            )
            codes = codes[order]
            weights = weights[order]
        if k:
            change = np.any(
                codes[1:, :k] != codes[:-1, :k], axis=1
            )
            starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        else:
            starts = np.zeros(1)
        starts = starts[:m].astype(np.int64)  # an empty bag: no groups
        offsets = np.concatenate([starts, [m]]).astype(np.int64)
        counts = np.diff(offsets)
        csum = np.cumsum(weights)
        base = csum[starts] - weights[starts]
        cum_inclusive = csum - np.repeat(base, counts)
        cum_before = cum_inclusive - weights
        totals = csum[offsets[1:] - 1] - base
        if projected:
            totals = np.ones_like(totals)
        return CsrBagIndex(
            ct.dictionary,
            np.ascontiguousarray(codes[starts][:, :k]),
            offsets,
            np.ascontiguousarray(codes[:, k]),
            weights,
            cum_before,
            totals,
        )

    # -- incremental maintenance -------------------------------------------

    def delta_table(self, atom, relation, rows):
        """Delta rows through ``atom``, encoded in ``relation``'s
        dictionary (so every later operator short-circuits its merge);
        ``None`` when the relation has no mirror or a value is missing
        from it (the delta renumbered, or the domain is unorderable)."""
        from repro.data.relation import Relation

        mirror = relation._columnar
        if mirror is None:
            return None
        rows = list(rows)
        try:
            encoded = ColumnarTable.from_rows(
                rows, relation.arity, mirror.dictionary
            ).lexsorted()
        except (KeyError, TypeError):
            return None
        return self.from_atom(
            atom,
            Relation._make(frozenset(rows), relation.arity, None, encoded),
        )

    def spliced_table(self, table, inserted, removed, kept):
        """Splice one delta's rows into a sorted bag table.

        Every operand must be columnar under the table's own
        dictionary, and the table lexsorted (what this engine's joins
        produce); otherwise ``None``.  The change record is the code
        matrix of the rows that moved, inserted and removed alike.
        """
        from repro.joins.operators import Table

        ct = table._columnar
        if ct is None:
            return None
        dictionary = ct.dictionary
        card = max(len(dictionary), 1)
        sides = []
        for tables in (inserted, removed, kept):
            mats = [np.empty((0, ct.arity), dtype=np.int64)]
            for part in tables:
                pct = part._columnar
                if (
                    pct is None
                    or pct.dictionary is not dictionary
                    or part.schema != table.schema
                ):
                    return None
                mats.append(pct.codes)
            sides.append(_unique_rows(np.concatenate(mats), card))
        inserts, removals, keeps = sides
        keys, probes = pack_pair(
            ct.codes, np.concatenate(sides, axis=0), card
        )
        if len(keys) > 1 and not np.all(keys[1:] > keys[:-1]):
            return None
        gained, lost = len(inserts), len(inserts) + len(removals)
        inserts = inserts[~_found(keys, probes[:gained])]
        removals = removals[
            ~np.isin(probes[gained:lost], probes[lost:])
        ]
        if not len(inserts) and not len(removals):
            return table, None
        spliced = Table._from_columnar(
            table.schema, ct.spliced(inserts, removals)
        )
        return spliced, np.concatenate([inserts, removals])

    def patch_bag_index(
        self, index, table, changes, child_slots, child_changes,
        projected,
    ):
        """Patch a bag's CSR arrays group by group, on fresh arrays.

        The rows whose weight may have moved are the spliced rows
        (``changes``) plus every row whose child interface is a key in
        ``child_changes``.  Each touched interface group is re-formed
        from its old candidates (minus the touched ones) and the
        touched rows still in the table, with their weights recomputed
        from the children's current totals; every other group's
        slice of the flat arrays is copied as it was.  The patched
        index is a new :class:`CsrBagIndex` over those arrays, as a
        build would return it: nothing is decoded, so a point read
        into any group of it is as fast as into a warm one.
        Object-dtype weights, a weight bound that
        would need them, a child over another dictionary or with an
        empty interface return ``None``: the caller rebuilds.
        """
        aux = index.aux
        ct = table._columnar
        if (
            aux is None
            or ct is None
            or ct.dictionary is not aux.dictionary
            or aux.weights_flat.dtype == np.dtype(object)
        ):
            return None
        n, arity = ct.codes.shape
        k = arity - 1
        card = max(len(ct.dictionary), 1)
        bound = 1
        for child, _positions in child_slots:
            caux = child.aux
            if (
                caux is None
                or caux.dictionary is not ct.dictionary
                or caux.totals.dtype == np.dtype(object)
            ):
                return None
            bound *= max(caux.max_total, 1)
            if bound * max(n, 1) >= _MAX_SAFE:
                return None

        touched = [np.empty((0, arity), dtype=np.int64), *changes]
        for (child, positions), keys in zip(child_slots, child_changes):
            if keys is None:
                continue
            if not positions:
                return None
            ka, kb = pack_pair(ct.codes[:, positions], keys, card)
            touched.append(ct.codes[np.isin(ka, kb)])
        rows = _unique_rows(np.concatenate(touched), card)
        if not len(rows):
            return index, None

        # The weight every touched row has now: 0 once it left the table.
        keys, probes = pack_pair(ct.codes, rows, card)
        if len(keys) > 1 and not np.all(keys[1:] > keys[:-1]):
            return None
        weights = _found(keys, probes).astype(np.int64)
        for child, positions in child_slots:
            weights *= _group_totals(
                child.aux, np.ascontiguousarray(rows[:, positions])
            )
        if projected:
            weights = (weights > 0).astype(np.int64)

        # Touched rows are sorted, so each interface group is one run.
        if k:
            change = np.any(rows[1:, :k] != rows[:-1, :k], axis=1)
            starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        else:
            starts = np.zeros(1, dtype=np.int64)
        ends = np.append(starts[1:], len(rows))
        group_keys = rows[starts, :k]
        old_groups = aux.group_codes.shape[0]
        found = np.zeros(len(starts), dtype=bool)
        at = np.zeros(len(starts), dtype=np.int64)
        if old_groups:
            ka, kb = pack_pair(group_keys, aux.group_codes, card)
            at = np.searchsorted(kb, ka)
            found = _found(kb, ka)
        old_counts = np.diff(aux.offsets)
        offsets = aux.offsets
        # Runs of groups, in order, as (group_codes, counts, values_flat,
        # weights_flat, cum_before, totals) slices of the patched index.
        pieces: list[tuple] = []

        def carry(first: int, last: int) -> None:
            """Old groups ``[first, last)``, unchanged."""
            if last <= first:
                return
            lo, hi = int(offsets[first]), int(offsets[last])
            pieces.append((
                aux.group_codes[first:last], old_counts[first:last],
                aux.values_flat[lo:hi], aux.weights_flat[lo:hi],
                aux.cum_before[lo:hi], aux.totals[first:last],
            ))

        changed = []
        cursor = 0
        for t in range(len(starts)):
            g = int(at[t])
            carry(cursor, g)
            run = rows[starts[t]:ends[t], k]
            values = aux.values_flat[:0]
            kept_weights = aux.weights_flat[:0]
            old_total = 0
            cursor = g
            if found[t]:
                lo, hi = int(offsets[g]), int(offsets[g + 1])
                values = aux.values_flat[lo:hi]
                kept_weights = aux.weights_flat[lo:hi]
                old_total = int(aux.totals[g])
                stale = np.flatnonzero(np.isin(values, run))
                values = np.delete(values, stale)
                kept_weights = np.delete(kept_weights, stale)
                cursor = g + 1
            run_weights = weights[starts[t]:ends[t]]
            live = run_weights > 0
            fresh = run[live]
            slot = np.searchsorted(values, fresh)
            values = np.insert(values, slot, fresh)
            group_weights = np.insert(kept_weights, slot, run_weights[live])
            total = 0
            if len(values):
                csum = np.cumsum(group_weights)
                total = 1 if projected else int(csum[-1])
                pieces.append((
                    group_keys[t:t + 1], np.array([len(values)]), values,
                    group_weights, csum - group_weights,
                    np.array([total], dtype=np.int64),
                ))
            if total != old_total:
                changed.append(t)
        carry(cursor, old_groups)

        flat = np.empty(0, dtype=np.int64)
        codes, counts, *arrays = (
            np.concatenate(column) for column in zip(
                (np.empty((0, k), dtype=np.int64), flat, flat, flat, flat,
                 flat),
                *pieces,
            )
        )
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return (
            CsrBagIndex(ct.dictionary, codes, offsets, *arrays),
            group_keys[changed] if changed else None,
        )

    # -- database preparation ----------------------------------------------

    def encode_database(self, database) -> None:
        """Install one shared-domain dictionary across all relations.

        Afterwards every cross-table dictionary merge in this engine
        short-circuits on object identity (``Dictionary.merged(a, a) is
        a``) and every ``with_dictionary`` remap is a no-op, so the
        per-operation merge + remap cost disappears for every query
        served against the database.  A domain that cannot be totally
        ordered leaves the relations untouched (per-operation fallback
        keeps working).
        """
        shared_dictionary_encode(database.relations)

    def apply_delta(self, database, delta):
        """Carry the shared encoding forward by the delta.

        The new database shares untouched relation objects (and their
        columnar mirrors) with the old one, and only the delta's rows
        are encoded (:func:`~repro.data.columnar.carry_shared_encoding`).
        When the delta's new domain values all sort after the shared
        dictionary's maximum, the dictionary is extended in place —
        code-stable, so every cached mirror, bag index, and counting
        forest built against it stays valid — and the rows are spliced
        into the mutated relations' sorted mirrors.  Otherwise every
        mirror is gathered into a renumbered dictionary on private
        relation copies (``incremental=False``): the structurally
        shared untouched relations still back the old snapshot, whose
        mirrors (and dictionary identity) must stay intact for any
        in-flight old-version build.
        """
        from repro.data.database import Database, EncodedDatabase

        if isinstance(database, EncodedDatabase):
            # It carries its own shared encoding forward — doing it
            # here as well would redo that work and misreport the path.
            new_database = database.advanced_by(delta)
            return (
                new_database,
                new_database.encoded_incrementally,
                new_database.rows_encoded,
            )
        relations, code_stable, rows_encoded = carry_shared_encoding(
            database.relations,
            database.advanced_by(delta).relations,
            delta,
        )
        return Database(relations), code_stable, rows_encoded

    # -- batch access ------------------------------------------------------

    def batch_access(self, access, indices):
        """Answers at validated indices; a batch descends vectorized.

        A point read (exactly one index) is one scalar descent that
        bisects the CSR arrays in place: the vector walk's per-level
        numpy calls cost more than the whole descent of one lane.  Two or more indices
        walk the forest level-synchronously: per level one
        ``searchsorted`` finds every lane's interface group and one more
        its candidate.
        """
        indices = [int(i) for i in indices]
        if len(indices) <= 1:
            return [access._walk_at(i) for i in indices]
        if access._total >= _MAX_SAFE:
            return self._fallback.batch_access(access, indices)
        levels = len(access._free_prefix)
        for i in range(levels):
            aux = access._indexes[i].aux
            if aux is None:
                return self._fallback.batch_access(access, indices)
            groups = len(aux.totals)
            if groups and aux.max_total + 1 > _MAX_SAFE // groups:
                return self._fallback.batch_access(access, indices)

        remaining = np.asarray(indices, dtype=np.int64)
        live = np.full(len(indices), access._total, dtype=np.int64)
        assigned: list = []
        for i in range(levels):
            aux = access._indexes[i].aux
            interface_vars = access._interface_vars[i]
            if interface_vars:
                cols = []
                for v in interface_vars:
                    j = access._position[v]
                    source = access._indexes[j].aux
                    codes_j = assigned[j]
                    if source.dictionary is not aux.dictionary:
                        remap = source.dictionary.remap_to(
                            aux.dictionary
                        )
                        codes_j = remap[codes_j]
                    cols.append(codes_j)
                ka, kb = pack_pair(
                    np.stack(cols, axis=1),
                    aux.group_codes,
                    max(len(aux.dictionary), 1),
                )
                # Every prefix reached here has positive count, so its
                # interface is an existing group: exact match guaranteed.
                group = np.searchsorted(kb, ka)
            else:
                group = np.zeros(len(indices), dtype=np.int64)
            group_total = aux.totals[group]
            others = live // group_total
            block = remaining // others
            stride = aux.max_total + 1
            position = (
                np.searchsorted(
                    aux.cum_shifted(),
                    block + group * stride,
                    side="right",
                )
                - 1
            )
            assigned.append(aux.values_flat[position])
            remaining = remaining - others * aux.cum_before[position]
            live = others * aux.weights_flat[position]

        decoded = []
        for i in range(levels):
            domain = access._indexes[i].aux.dictionary.values
            decoded.append([domain[c] for c in assigned[i].tolist()])
        free = access._free_prefix
        return [
            {v: decoded[i][r] for i, v in enumerate(free)}
            for r in range(len(indices))
        ]

    # -- inverse access ----------------------------------------------------

    def batch_rank(self, access, rows):
        """Inverse access; a batch of rows descends level-synchronously.

        A point read (exactly one row) is one scalar :func:`rank_walk`
        that bisects the CSR arrays in place.  For two or more rows, per level one
        ``searchsorted`` locates every row's interface group and one
        more its candidate position inside the group (via the
        :meth:`CsrBagIndex.values_shifted` globally-ascending trick); rows
        whose value or interface is absent are masked out and come back
        ``None``.  The recurrence is the exact inverse of
        :meth:`batch_access`, so ranks round-trip.
        """
        rows = list(rows)
        if len(rows) <= 1:
            return [rank_walk(access, row) for row in rows]
        if access._total == 0:
            return [None] * len(rows)
        if access._total >= _MAX_SAFE:
            return self._fallback.batch_rank(access, rows)
        levels = len(access._free_prefix)
        for i in range(levels):
            aux = access._indexes[i].aux
            if aux is None:
                return self._fallback.batch_rank(access, rows)
            groups = len(aux.totals)
            if groups and aux.max_total + 1 > _MAX_SAFE // groups:
                return self._fallback.batch_rank(access, rows)
            card = max(len(aux.dictionary), 1)
            if groups and card > _MAX_SAFE // groups:
                return self._fallback.batch_rank(access, rows)

        n = len(rows)
        valid = np.array(
            [
                isinstance(row, tuple) and len(row) == levels
                for row in rows
            ],
            dtype=bool,
        )

        def encode(dictionary, level):
            """Codes of every row's ``level``-th value, -1 when absent."""
            out = np.full(n, -1, dtype=np.int64)
            code = dictionary.code
            for r, row in enumerate(rows):
                if valid[r]:
                    try:
                        out[r] = code(row[level])
                    except TypeError:  # unhashable: not in the domain
                        out[r] = -1
            return out

        rank = np.zeros(n, dtype=np.int64)
        live = np.full(n, access._total, dtype=np.int64)
        # level_codes[j]: row j-th values encoded under level j's own
        # dictionary (clipped non-negative; invalid rows are masked).
        # Interface lookups below gather through remap_to instead of
        # re-encoding per row — per-unique-value cost, like batch_access.
        level_codes: list = []
        for i in range(levels):
            aux = access._indexes[i].aux
            card = max(len(aux.dictionary), 1)
            group_count = aux.group_codes.shape[0]
            if group_count == 0:
                valid[:] = False
                break
            interface_vars = access._interface_vars[i]
            if interface_vars:
                cols = []
                for v in interface_vars:
                    j = access._position[v]
                    source = access._indexes[j].aux
                    codes_j = level_codes[j]
                    if source.dictionary is not aux.dictionary:
                        remap = source.dictionary.remap_to(
                            aux.dictionary
                        )
                        codes_j = remap[codes_j]  # absent values -> -1
                    cols.append(codes_j)
                mat = np.stack(cols, axis=1)
                valid &= (mat >= 0).all(axis=1)
                ka, kb = pack_pair(
                    np.where(mat < 0, 0, mat), aux.group_codes, card
                )
                pos = np.searchsorted(kb, ka)
                group = np.minimum(pos, group_count - 1)
                valid &= (pos < group_count) & (kb[group] == ka)
            else:
                group = np.zeros(n, dtype=np.int64)
            codes = encode(aux.dictionary, i)
            valid &= codes >= 0
            codes = np.where(codes < 0, 0, codes)
            level_codes.append(codes)
            target = codes + group * card
            shifted = aux.values_shifted()
            pos = np.searchsorted(shifted, target, side="left")
            pos = np.minimum(pos, len(shifted) - 1)
            valid &= shifted[pos] == target
            # Masked-out rows keep computing on candidate 0 of group 0;
            # their lanes are discarded at the end.
            group_total = aux.totals[group]
            others = live // group_total
            rank += others * aux.cum_before[pos]
            live = others * aux.weights_flat[pos]
        return [
            int(rank[r]) if valid[r] else None for r in range(n)
        ]
