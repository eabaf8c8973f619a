"""The execution-engine protocol.

An :class:`Engine` separates *what* the algorithms compute (worst-case
optimal joins, Theorem 10 bag materialization, counting-forest prefix
sums) from *how* tuples are stored and batched.  Two implementations
ship with the library:

* :class:`~repro.engine.python_engine.PythonEngine` — frozensets of
  Python tuples, tries, per-row loops; the reference semantics.
* :class:`~repro.engine.numpy_engine.NumpyEngine` — dictionary-encoded
  columnar batches (:mod:`repro.data.columnar`), lexsort-based ordering
  and vectorized prefix sums.

Both must be observationally identical: same ``Table`` row sets, same
counting-forest group contents, same enumeration order.  The numpy
engine guarantees this by encoding the active domain order-preservingly
and falling back to the Python engine wherever a domain cannot be
encoded (e.g. incomparable mixed-type constants) or a count could
overflow int64.
"""

from __future__ import annotations

import abc
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from collections.abc import Sequence


class OpCounters(Counter):
    """Monotonic per-engine operation counters.

    Engines and the access layer increment these so tests (and
    operators) can assert *how* a result was produced — e.g. that an
    inverse-access lookup resolved zero positional accesses and hence
    never fell back to enumerating answers.  Keys in use:

    * ``answer_walks`` — scalar ``answer_at`` forest descents;
    * ``access_batches`` / ``access_indices`` — ``answers_at`` calls
      and the total number of indices they resolved;
    * ``rank_batches`` / ``rank_tuples`` — ``ranks_of`` calls and the
      total number of tuples they ranked.

    Counters are engine-instance-local.  :func:`repro.connect` gives
    every connection a fresh engine instance (unless handed an explicit
    instance to share), so ``view.op_counters()`` only moves with that
    connection's work; structures built directly on the process-global
    engine (``get_engine()``) share the global instance's counters.

    Increment through :meth:`add`: it locks, so concurrent lock-free
    reads of one access structure (the documented-safe pattern) never
    lose counts.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()

    def add(self, key: str, amount: int = 1) -> None:
        """Atomically bump ``key`` by ``amount``."""
        with self._lock:
            self[key] += amount

    def snapshot(self) -> dict[str, int]:
        """An atomic plain-dict copy (safe to diff against a later one)."""
        with self._lock:
            return dict(self)


def rank_walk(access, row) -> int | None:
    """The rank of answer ``row``, by one descent of the counting forest.

    The exact inverse of ``answer_at``'s recurrence: at each level the
    bag index finds the row's value in the current interface group
    (:meth:`BagIndex.rank_step`) and adds the weight strictly before
    it, scaled by the answers per unit of this group, to the rank.
    ``O(ℓ log |D|)``, no enumeration.

    Returns ``None`` when ``row`` is not an answer (wrong arity, value
    absent at some level, or an interface never reached by any answer).
    """
    if not isinstance(row, tuple) or len(row) != len(access._levels):
        return None
    live = access._total
    if live == 0:
        return None
    rank = 0
    keys: list = []
    try:
        for i, (_variable, index, interface_of, by_value) in enumerate(
            access._levels
        ):
            step = index.rank_step(
                interface_of(row if by_value else keys), row[i], rank, live
            )
            if step is None:
                return None
            key, rank, live = step
            keys.append(key)
    except (KeyError, TypeError):
        # No such group, or an unhashable, incomparable or unknown
        # value: by definition not an answer.
        return None
    return rank


class BagIndex:
    """Per-bag search structure of the counting forest (Python engine).

    ``groups[s]`` (``s`` = interface value tuple) is a triple of parallel
    lists: candidate values of the bag variable in sorted order, the
    subtree weight of each candidate, and cumulative weights with a
    leading 0 (so ``cumulative[j]`` is the weight strictly before
    candidate ``j``).  ``totals[s]`` is the group's total weight
    ``W_i(s)``.  Zero-weight candidates are dropped.

    Every bag index answers the calls the scalar descent, the range
    walk and a Python parent build read: :meth:`total` (at interface
    values), :meth:`encode`, :meth:`access_step`, :meth:`rank_step`
    and :meth:`group_window`.  A step takes the interface as a tuple
    of keys and returns the key it chose, so the walk carries keys
    down; a key is the value itself here, and ``dictionary`` / ``aux``
    are ``None``.  The numpy
    engine's index (:class:`~repro.engine.numpy_engine.CsrBagIndex`)
    keys by codes of its ``dictionary`` and is its own ``aux``.
    """

    __slots__ = ("groups", "totals")

    dictionary = None
    aux = None

    def __init__(self) -> None:
        self.groups: dict[tuple, tuple[list, list[int], list[int]]] = {}
        self.totals: dict[tuple, int] = {}

    def build(self, weighted_rows: dict[tuple, int]) -> None:
        by_interface: dict[tuple, dict] = {}
        for row, weight in weighted_rows.items():
            if weight > 0:
                by_interface.setdefault(row[:-1], {})[row[-1]] = weight
        for interface, candidates in by_interface.items():
            self.put_group(interface, candidates)

    def put_group(self, interface: tuple, candidates: dict) -> int:
        """Set the group at ``interface`` to ``candidates`` (candidate
        value -> positive weight), or remove it when there are none.
        Returns the group's total weight."""
        if not candidates:
            self.groups.pop(interface, None)
            self.totals.pop(interface, None)
            return 0
        values = sorted(candidates)
        weights = [candidates[value] for value in values]
        cumulative = [0, *accumulate(weights)]
        self.groups[interface] = (values, weights, cumulative)
        self.totals[interface] = cumulative[-1]
        return cumulative[-1]

    def total(self, interface: tuple) -> int:
        """The total weight of the group at interface *values*."""
        return self.totals.get(interface, 0)

    def encode(self, values: tuple) -> tuple:
        """This index's keys for interface ``values``."""
        return values

    def access_step(self, interface, remaining: int, live: int):
        """One level of the access descent: ``(key, value, remaining,
        live)`` for the candidate of the group at ``interface`` that
        answer ``remaining`` (of ``live`` below this prefix) lies in."""
        others = live // self.totals[interface]
        values, weights, cumulative = self.groups[interface]
        j = bisect_right(cumulative, remaining // others) - 1
        value, before = values[j], cumulative[j]
        return value, value, remaining - others * before, others * weights[j]

    def group_window(self, interface):
        """``(keys, lo, hi, domain)``: the candidate keys of the group
        at ``interface`` are ``keys[lo:hi]``, in order, and a key's
        value is ``domain[key]`` (``domain`` ``None``: the key itself)."""
        values = self.groups[interface][0]
        return values, 0, len(values), None

    def rank_step(self, interface, value, rank: int, live: int):
        """One level of :func:`rank_walk`: ``(key, rank, live)`` past
        ``value`` in the group at ``interface``, or ``None`` when no
        candidate there is ``value`` (``KeyError``: no such group)."""
        values, weights, cumulative = self.groups[interface]
        j = bisect_left(values, value)
        if j == len(values) or values[j] != value:
            return None
        others = live // self.totals[interface]
        return value, rank + others * cumulative[j], others * weights[j]


class Engine(abc.ABC):
    """Tuple-level operations behind the join and access layers.

    All ``Table``-valued operations take and return
    :class:`~repro.joins.operators.Table` instances; an engine is free to
    attach its own backing representation to the tables it produces (the
    numpy engine returns tables whose rows are materialized lazily from a
    columnar code matrix).
    """

    #: Registry name (``"python"`` / ``"numpy"``).
    name: str = "abstract"

    def __init__(self) -> None:
        #: Operation counters (see :class:`OpCounters`); the access
        #: layer increments them for every walk/batch it dispatches.
        self.counters = OpCounters()

    # -- relational operators ---------------------------------------------

    @abc.abstractmethod
    def from_atom(self, atom, relation):
        """Interpret ``relation`` through ``atom`` (collapse repeats)."""

    @abc.abstractmethod
    def project(self, table, variables: tuple, positions: list[int]):
        """Project ``table`` onto ``variables`` at ``positions``."""

    @abc.abstractmethod
    def select(self, table, assignment: dict):
        """Keep rows of ``table`` consistent with ``assignment``."""

    @abc.abstractmethod
    def semijoin(self, left, right):
        """``left ⋉ right`` on the shared columns."""

    @abc.abstractmethod
    def natural_join(self, left, right):
        """Binary natural join, schema = left's then right's extras."""

    @abc.abstractmethod
    def join(self, tables: Sequence, variable_order: Sequence[str]):
        """Materialize the n-way natural join over ``variable_order``."""

    # -- ordering ----------------------------------------------------------

    @abc.abstractmethod
    def sorted_rows(self, table) -> list[tuple]:
        """``table``'s rows in lexicographic order."""

    @abc.abstractmethod
    def intersect_sorted(self, left: Sequence, right: Sequence) -> list:
        """Intersection of two sorted duplicate-free sequences."""

    # -- counting forest ---------------------------------------------------

    @abc.abstractmethod
    def build_bag_index(
        self,
        table,
        child_slots: Sequence[tuple["BagIndex", list[int]]],
        projected: bool,
    ) -> BagIndex:
        """Build one bag's counting-forest index.

        ``child_slots`` pairs each child bag's index with the positions
        of the child's interface variables inside ``table``'s schema.
        The weight of a row is the product of the child totals at the
        row's interface values; when ``projected`` both the row weights
        and the group totals collapse to existence indicators (Theorem
        50's projected-suffix handling).
        """

    # -- database preparation ----------------------------------------------

    def encode_database(self, database) -> None:
        """Prepare ``database`` for repeated queries under this engine.

        Called once per store (:class:`repro.session.ArtifactStore`),
        before any query runs, so per-query setup work can be hoisted:
        the numpy engine builds one shared-domain dictionary for all
        relations, the Python engine warms the sorted-tuple caches.
        Must be a pure optimization — observable results never change.
        """

    def apply_delta(self, database, delta):
        """``(new_database, incremental, rows_encoded)`` after applying
        ``delta``, which the caller has validated and minimized against
        ``database`` (:meth:`Delta.effective_against
        <repro.data.delta.Delta.effective_against>`).

        ``new_database`` shares every untouched relation object with
        ``database`` (:meth:`Database.advanced_by
        <repro.data.database.Database.advanced_by>` structural
        sharing), so the old database remains a valid immutable
        snapshot — readers that captured it keep serving consistent
        pre-delta answers.  ``incremental`` reports whether the engine
        maintained its per-database preparation in place (e.g.
        extended a shared dictionary code-stably) instead of
        renumbering or redoing it; ``rows_encoded`` counts the rows
        that went through an interpreter-level encoder on the way —
        the delta's own under a carried encoding, never ``|R|``.

        The reference path has no cross-relation encoding to maintain:
        structural sharing alone is fully incremental, the mutated
        relations arrive with their sorted lists already carried
        forward, and :meth:`encode_database` finds nothing to sort.
        """
        new_database = database.advanced_by(delta)
        self.encode_database(new_database)
        return new_database, True, 0

    # -- incremental maintenance -------------------------------------------
    #
    # After a write the store moves the previous version's bag tables
    # and counting forest forward through these three hooks instead of
    # rebuilding them.  A hook answers ``None`` when it cannot express
    # the step (e.g. a delta that renumbered the numpy dictionary);
    # the caller then rebuilds, and counts it.

    @abc.abstractmethod
    def delta_table(self, atom, relation, rows):
        """``rows`` of ``relation`` (a delta side) interpreted through
        ``atom``, like :meth:`from_atom`, in the encoding ``relation``
        carries; ``None`` when they cannot be expressed in it."""

    @abc.abstractmethod
    def spliced_table(self, table, inserted, removed, kept):
        """``table`` moved forward by one delta, or ``None`` when it
        cannot be spliced (the caller rebuilds).

        ``inserted`` and ``removed`` are candidate tables over
        ``table``'s schema: the result gains the ``inserted`` rows it
        lacks and loses the ``removed`` rows that are not in any
        ``kept`` table.  Returns ``(new_table, change)``: ``change`` is
        an engine-private record of the rows that moved, ``None`` (and
        ``new_table is table``) when none did.  ``table`` is never
        written.
        """

    @abc.abstractmethod
    def patch_bag_index(
        self, index, table, changes, child_slots, child_changes,
        projected,
    ):
        """``index`` (built over an earlier version of ``table``) moved
        forward, or ``None`` when it cannot be patched (the caller
        rebuilds).

        ``changes`` lists the :meth:`spliced_table` change records of
        the rows that moved in ``table`` since; ``child_slots`` is as
        in :meth:`build_bag_index`, with each child's *current* index,
        and ``child_changes`` holds, per child, the engine's record of
        the interface keys whose total changed (``None``: none did).
        Returns ``(new_index, changed)`` with ``changed`` the same
        record for this bag's own groups; the result equals a
        :meth:`build_bag_index` from scratch, and ``index`` is never
        written.
        """

    # -- batch access ------------------------------------------------------

    def batch_access(self, access, indices: Sequence[int]) -> list[dict]:
        """``[access.answer_at(i) for i in indices]``, possibly batched.

        ``indices`` are already validated and non-negative.  Engines may
        override with a vectorized strategy but must return answers in
        the same order as ``indices``.  The walk bypasses the scalar
        ``answer_at`` counter: the batch was already counted once at the
        ``answers_at`` boundary.
        """
        return [access._walk_at(int(i)) for i in indices]

    # -- inverse access ----------------------------------------------------

    def batch_rank(
        self, access, rows: Sequence[tuple]
    ) -> list[int | None]:
        """The rank of each tuple of ``rows``, or ``None`` if not an answer.

        The reference path (inherited by the Python engine) performs one
        :func:`rank_walk` counting-forest descent per tuple —
        ``O(ℓ log |D|)`` each, never enumeration.  The numpy engine
        overrides with a level-synchronous vectorized strategy; both
        satisfy ``access.tuple_at(rank) == row`` whenever the result is
        not ``None``.
        """
        return [rank_walk(access, row) for row in rows]
