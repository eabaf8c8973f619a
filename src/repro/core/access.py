"""Lexicographic direct access (Theorems 1, 10 and 44-upper; Theorem 50).

:class:`DirectAccess` simulates the sorted array of ``Q(D)`` for the
lexicographic order induced by a variable order ``L``:

* preprocessing: materialize the disruption-free decomposition's bag
  relations (time ``O(|D|^ι)``, Theorem 10), then build a counting forest
  — per bag, tuples grouped by interface value, sorted by the bag
  variable's value, with subtree-weight prefix sums;
* access: walk ``L``, binary-searching one group per variable and
  maintaining the exact count of answers below the current prefix —
  ``O(ℓ log |D|)`` per call.

The counting forest is built by the execution engine active at
construction time: the Python engine loops per row, the numpy engine
lexsorts dictionary-encoded columns and takes one ``cumsum`` per bag —
the resulting structure is identical.  :meth:`DirectAccess.answers_at`
answers a whole batch of indices at once (vectorized under the numpy
engine), for pagination and sampling workloads.

Projected variables (conjunctive queries, Theorem 50) are supported when
they form a suffix of the order: their bags contribute existence
indicators instead of counts, so each free-variable answer is counted
once no matter how many extensions it has.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.preprocessing import Preprocessing
from repro.data.database import Database
from repro.engine.base import BagIndex
from repro.errors import OrderError, OutOfBoundsError, QueryError
from repro.query.query import JoinQuery
from repro.query.variable_order import VariableOrder


#: A bag index built from scratch: what changed in it is unknown, so
#: every ancestor is built from scratch too.
_REBUILT = object()


@dataclass(frozen=True)
class CountingForest:
    """A counting forest with the identity it was built for.

    ``indexes`` maps each bag variable to its
    :class:`~repro.engine.base.BagIndex`; ``key`` is ``(query
    signature, decomposition cache_key, projected frozenset)`` and
    ``database`` the exact database the counts came from.  The
    provenance lets :class:`DirectAccess` *validate* an injected forest
    instead of silently mis-counting with one built for a different
    query, decomposition, projection, or database — per-bag indexes
    are order-independent, but only within one such tuple.
    ``tables`` is the ``token`` of the
    :class:`~repro.core.preprocessing.BagTables` the counts were taken
    over: a later carrier patched from those tables can patch this
    forest too.
    """

    indexes: Mapping[str, BagIndex]
    key: tuple
    database: Database
    tables: object = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.indexes)


class DirectAccess:
    """Array-like access to ``Q(D)`` sorted by the order ``L``.

    Supports ``len``, integer indexing (including negative indices),
    iteration (ordered enumeration), batch access
    (:meth:`answers_at`), inverse access (:meth:`rank_of` /
    :meth:`ranks_of` / ``in``), and slicing-free random access. For
    conjunctive queries with projections, pass the free-variable prefix of
    a completion order; see :mod:`repro.core.projections` for the
    Theorem 50 wrapper that picks an optimal completion automatically.

    This is the engine-room structure behind the facade: application
    code gets views through :func:`repro.connect` /
    :meth:`repro.Connection.prepare`, which adds planning, caching,
    and ``Sequence`` slice semantics on top.

    Args:
        query: a join query (all variables free).
        order: a permutation of *all* query variables. Variables listed in
            ``projected`` must form a suffix.
        database: the input database.
        projected: variables to project away (suffix of ``order``).
        preprocessing: optionally, an already-built
            :class:`~repro.core.preprocessing.Preprocessing` for the same
            ``(query, order, database)`` (session caches inject it here
            to skip re-materializing the bag relations).
        forest: optionally, an already-built :class:`CountingForest`
            from a session cache (e.g. another access structure's
            :attr:`forest`).  The per-bag indexes depend only on the
            decomposition (and ``projected``), not on the inducing
            order, so a forest built for one order is reused verbatim
            by any other order with the same decomposition; the
            forest's key is validated against this request and a
            mismatch raises :class:`~repro.errors.QueryError`.
        base_forest: optionally (with ``forest`` absent), the forest of
            the same request at an earlier database version.  When
            ``preprocessing`` was patched from the tables that forest
            was built over, each bag index whose rows and children did
            not move is kept by identity and every other one is patched
            by the engine (:attr:`patched_bag_count`); bags the engine
            cannot patch, and their ancestors, are built from scratch
            (:attr:`built_bag_count`).
    """

    def __init__(
        self,
        query: JoinQuery,
        order: VariableOrder,
        database: Database,
        projected: frozenset[str] | set[str] = frozenset(),
        *,
        preprocessing: Preprocessing | None = None,
        forest: CountingForest | None = None,
        base_forest: CountingForest | None = None,
    ):
        self.query = query
        self.order = order
        self.database = database
        self.projected = frozenset(projected)
        variables = list(order)
        free_count = len(variables) - len(self.projected)
        if set(variables[free_count:]) != self.projected:
            raise OrderError(
                "projected variables must form a suffix of the order"
            )
        self._free_prefix = variables[:free_count]

        if preprocessing is None:
            preprocessing = Preprocessing(query, order, database)
        elif list(preprocessing.order) != variables:
            raise OrderError(
                "preprocessing was built for a different order"
            )
        elif preprocessing.database is not database or (
            preprocessing.query is not query
            and preprocessing.query.signature() != query.signature()
        ):
            raise QueryError(
                "preprocessing was built for a different "
                "query/database"
            )
        self.preprocessing = preprocessing
        self._engine = self.preprocessing.engine
        decomposition = self.preprocessing.decomposition
        self._bags = self.preprocessing.bags
        self._interface_vars: list[list[str]] = []
        self._position = {v: i for i, v in enumerate(order)}
        for item in self._bags:
            self._interface_vars.append(
                sorted(item.bag.interface, key=self._position.__getitem__)
            )
        self._children = decomposition.children()
        forest_key = (
            query.signature(),
            decomposition.cache_key(),
            self.projected,
        )
        if forest is not None and (
            forest.key != forest_key or forest.database is not database
        ):
            raise QueryError(
                "forest was built for a different query/"
                "decomposition/projection/database"
            )
        if base_forest is not None and (
            base_forest.key != forest_key
            or base_forest.tables is None
            or base_forest.tables is not self.preprocessing.basis
        ):
            base_forest = None
        #: Bag indexes built from scratch / patched from ``base_forest``
        #: here (both 0 when a whole ``forest`` was injected).
        self.built_bag_count = 0
        self.patched_bag_count = 0
        self._indexes, self._total = self._build_counts(forest, base_forest)
        #: The counting forest — the cacheable, order-independent
        #: artifact (see the ``forest`` argument).
        self.forest = CountingForest(
            indexes={
                item.bag.variable: index
                for item, index in zip(self._bags, self._indexes)
            },
            key=forest_key,
            database=database,
            tables=(
                self.preprocessing.token if forest is None else forest.tables
            ),
        )

    @property
    def engine_name(self) -> str:
        """Name of the engine this access structure was built with."""
        return self._engine.name

    # -- preprocessing ----------------------------------------------------

    def _build_counts(
        self,
        forest: CountingForest | None = None,
        base: CountingForest | None = None,
    ) -> tuple[list[BagIndex], int]:
        count = len(self._bags)
        if forest is not None:
            indexes = [
                forest.indexes[item.bag.variable]
                for item in self._bags
            ]
        else:
            indexes: list[BagIndex | None] = [None] * count
            # Per bag, after a patch: None (totals unchanged), the
            # engine's record of the changed totals, or _REBUILT.
            moved: list = [_REBUILT] * count
            changes = self.preprocessing.changes
            for i in range(count - 1, -1, -1):
                item = self._bags[i]
                table = item.table
                schema_pos = {v: p for p, v in enumerate(table.schema)}
                children = self._children.get(i, ())  # children: > i
                child_slots = [
                    (
                        indexes[child],
                        [schema_pos[v] for v in self._interface_vars[child]],
                    )
                    for child in children
                ]
                projected_bag = item.bag.variable in self.projected
                child_moves = [moved[child] for child in children]
                patched = None
                if base is not None and not any(
                    m is _REBUILT for m in child_moves
                ):
                    old = base.indexes[item.bag.variable]
                    rows = changes.get(item.bag.variable, ())
                    if not rows and all(m is None for m in child_moves):
                        indexes[i], moved[i] = old, None
                        continue
                    patched = self._engine.patch_bag_index(
                        old, table, rows, child_slots, child_moves,
                        projected_bag,
                    )
                if patched is None:
                    indexes[i] = self._engine.build_bag_index(
                        table, child_slots, projected_bag
                    )
                    self.built_bag_count += 1
                else:
                    indexes[i], moved[i] = patched
                    self.patched_bag_count += 1

        total = 1
        for root in self._children.get(None, ()):
            indexes_root = indexes[root]
            total *= indexes_root.total(())
        return [index for index in indexes if index is not None], total

    # -- the array interface ----------------------------------------------

    def __len__(self) -> int:
        """The number of answers (of the free variables, if projecting)."""
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    def answer_at(self, index: int) -> dict[str, object]:
        """The ``index``-th answer (0-based) as a variable -> value map.

        Raises :class:`~repro.errors.OutOfBoundsError` outside
        ``[0, len)`` — the paper's out-of-bounds error.
        """
        if index < 0 or index >= self._total:
            raise OutOfBoundsError(
                f"index {index} out of range [0, {self._total})"
            )
        self._engine.counters.add("answer_walks")
        return self._walk_at(index)

    def _walk_at(self, index: int) -> dict[str, object]:
        """One forest descent for a validated index — the uncounted
        inner walk; engines' batch loops call this so enumeration pays
        one counter update per *batch*, not one lock per answer."""
        remaining = index
        live = self._total
        assignment: dict[str, object] = {}
        for i, variable in enumerate(self._free_prefix):
            bag_index = self._indexes[i]
            interface = tuple(
                assignment[v] for v in self._interface_vars[i]
            )
            group_total = bag_index.total(interface)
            others = live // group_total
            values, weights, cumulative = bag_index.groups[interface]
            block = remaining // others
            j = bisect_right(cumulative, block) - 1
            assignment[variable] = values[j]
            remaining -= others * cumulative[j]
            live = others * weights[j]
        return assignment

    def answers_at(
        self, indices: Iterable[int] | Sequence[int]
    ) -> list[dict[str, object]]:
        """The answers at ``indices``, in the same order (batch access).

        Negative indices count from the end, like :meth:`__getitem__`.
        Raises :class:`~repro.errors.OutOfBoundsError` if any index
        falls outside ``[-len, len)``.  Under the numpy engine a batch
        of two or more is resolved level-synchronously with vectorized
        binary searches, and a batch of one takes the scalar descent;
        the result is identical to calling :meth:`answer_at` per index.
        """
        normalized: list[int] = []
        for requested in indices:
            requested = int(requested)
            index = requested + self._total if requested < 0 else requested
            if index < 0 or index >= self._total:
                raise OutOfBoundsError(
                    f"index {requested} out of range "
                    f"[-{self._total}, {self._total})"
                )
            normalized.append(index)
        counters = self._engine.counters
        counters.add("access_batches")
        counters.add("access_indices", len(normalized))
        return self._engine.batch_access(self, normalized)

    def __getitem__(self, index: int) -> dict[str, object]:
        if index < 0:
            index += self._total
        return self.answer_at(index)

    def tuple_at(self, index: int) -> tuple:
        """The ``index``-th answer as a tuple over the free order prefix."""
        answer = self.answer_at(index)
        return tuple(answer[v] for v in self._free_prefix)

    def tuples_at(
        self, indices: Iterable[int] | Sequence[int]
    ) -> list[tuple]:
        """Batch :meth:`tuple_at`: tuples over the free prefix, in order.

        One engine batch (vectorized under numpy) instead of one access
        walk per index — the task layer (:mod:`repro.core.tasks`) routes
        boxplots, pages, and samples through this.
        """
        free = self._free_prefix
        return [
            tuple(answer[v] for v in free)
            for answer in self.answers_at(indices)
        ]

    # -- inverse access ----------------------------------------------------

    def rank_of(self, row: tuple) -> int | None:
        """The index of answer ``row``, or ``None`` if it is no answer.

        The inverse of :meth:`tuple_at`: ``row`` is a tuple over the
        free prefix, and whenever the result is not ``None``,
        ``self.tuple_at(self.rank_of(row)) == row``.  One counting-forest
        descent with a binary search per level — ``O(ℓ log |D|)``, never
        enumeration.
        """
        return self.ranks_of([row])[0]

    def ranks_of(
        self, rows: Iterable[tuple] | Sequence[tuple]
    ) -> list[int | None]:
        """Batch :meth:`rank_of`: one rank (or ``None``) per input row.

        Resolved by the engine in one batch — level-synchronous
        vectorized binary searches under numpy for two or more rows,
        one reference :func:`~repro.engine.base.rank_walk` per row
        under Python and for a single row under numpy.
        """
        rows = list(rows)
        counters = self._engine.counters
        counters.add("rank_batches")
        counters.add("rank_tuples", len(rows))
        return self._engine.batch_rank(self, rows)

    def __contains__(self, row) -> bool:
        """Inverse-access membership (no enumeration).

        Accepts a tuple over the free prefix or a variable -> value
        mapping (the form :meth:`__getitem__` returns).
        """
        if isinstance(row, Mapping):
            if set(row) != set(self._free_prefix):
                return False
            row = tuple(row[v] for v in self._free_prefix)
        return self.rank_of(row) is not None

    @property
    def free_variables(self) -> tuple[str, ...]:
        """The variables of returned answers, in order position."""
        return tuple(self._free_prefix)

    #: Batch size of :meth:`__iter__`: large enough to amortize the
    #: vectorized batch dispatch, small enough to stay O(1)-ish memory.
    ITER_CHUNK = 1024

    def __iter__(self) -> Iterator[dict[str, object]]:
        """Ordered enumeration by consecutive accesses ([10]'s reduction).

        Iterates in chunked :meth:`answers_at` batches so enumeration is
        vectorized under the numpy engine while staying lazy: only
        :attr:`ITER_CHUNK` answers are materialized at a time.
        """
        for start in range(0, self._total, self.ITER_CHUNK):
            stop = min(start + self.ITER_CHUNK, self._total)
            yield from self.answers_at(range(start, stop))
