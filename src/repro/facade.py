"""The public facade: ``connect`` → :class:`Connection` → :class:`AnswerView`.

The paper's result is that, after preprocessing, the sorted answer set
``Q(D)`` behaves like an array: the k-th answer is retrievable in
``O(ℓ log |D|)``.  That is exactly Python's :class:`collections.abc.Sequence`
contract, so the library's public surface is one prepared-query handle
with sequence semantics:

    >>> import repro
    >>> conn = repro.connect({"R": {(1, 2), (3, 2)}, "S": {(2, 7), (2, 9)}})
    >>> view = conn.prepare("Q(x, y, z) :- R(x, y), S(y, z)",
    ...                     order=["x", "y", "z"])
    >>> len(view), view[0], view[-1]
    (4, (1, 2, 7), (3, 2, 9))
    >>> view.rank((3, 2, 7))            # inverse access: answer -> index
    2
    >>> list(view[1:3])                 # slices are lazy sub-views
    [(1, 2, 9), (3, 2, 7)]

Everything underneath — engine selection, dictionary encoding,
cache-aware planning, cross-order preprocessing reuse — is the
:class:`~repro.session.ArtifactStore` engine room behind the
:class:`Connection`; every :meth:`Connection.prepare` is a cache-aware
planning step, so preparing the same query twice costs one
preprocessing pass.

Inverse access (:meth:`AnswerView.rank` / ``in`` / ``index``) descends
the counting forest with one binary search per level — ``O(ℓ log |D|)``
per lookup, never enumeration — so ``view[view.rank(t)] == t``
round-trips and membership over answer sets of any size is cheap.
"""

from __future__ import annotations

import operator
import weakref
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from repro.core import tasks
from repro.core.access import DirectAccess
from repro.core.advisor import OrderReport
from repro.engine.registry import get_engine
from repro.data.database import Database
from repro.data.delta import Delta
from repro.errors import (
    NotAnAnswerError,
    OutOfBoundsError,
    ReproError,
    StaleViewError,
)
from repro.query.parser import parse_query
from repro.session.artifacts import ArtifactStore, StoreStats


def connect(
    database: Database | Mapping | str,
    *,
    engine=None,
    cache: int | None = 64,
    timeout: float = 30.0,
    retain_versions: int | None = None,
):
    """Open a connection over a database — local or served over HTTP.

    With a database (or a plain mapping), this returns an in-process
    :class:`Connection`; with a URL string, an
    :class:`~repro.server.client.HTTPConnection` to a ``repro serve``
    process — same ``prepare`` → view API, so application code does not
    care where the preprocessing runs:

        >>> import repro
        >>> conn = repro.connect({"R": {(1, 2)}, "S": {(2, 7)}})
        >>> conn.prepare("Q(x, y, z) :- R(x, y), S(y, z)",
        ...              order=["x", "y", "z"])[0]
        (1, 2, 7)
        >>> repro.connect("http://127.0.0.1:8080")      # doctest: +SKIP
        HTTPConnection('http://127.0.0.1:8080', open)

    Args:
        database: a :class:`~repro.data.database.Database`, a plain
            mapping of relation names to tuple iterables (converted),
            or the URL of a running ``repro serve`` (``"http://..."``,
            ``"https://..."``, or a bare ``"host:port"``).
        engine: execution engine (name, instance, or ``None`` for a
            fresh instance of the process-global active engine's kind);
            pinned for the connection's lifetime.  Passing ``None`` or
            a name gives the connection its own instance — and thus its
            own :class:`~repro.engine.base.OpCounters` — while an
            explicit instance is shared as given.  (Local connections
            only: a URL's engine was chosen by the server.)
        cache: per-artifact cache capacity of the connection's store
            (``None`` = unbounded, ``0`` = caching disabled).
        timeout: per-request socket timeout in seconds (URLs only).
        retain_versions: how many MVCC database snapshots the store
            keeps, so views prepared before a mutation keep serving
            (see :class:`~repro.session.mvcc.SnapshotPlane`; local
            connections only).
    """
    if isinstance(database, str):
        from repro.server.client import HTTPConnection

        if engine is not None or cache != 64 or retain_versions is not None:
            raise ReproError(
                "engine/cache/retain_versions are server-side "
                "settings; set them where `repro serve` runs"
            )
        return HTTPConnection(database, timeout=timeout)
    if engine is None:
        # A fresh instance of the active engine's kind: connection-local
        # op counters, no shared mutable state with other connections.
        engine = get_engine().name
    store = ArtifactStore(
        database,
        engine=engine,
        capacity=cache,
        retain_versions=retain_versions,
    )
    return Connection(store)


class Connection:
    """A prepared-query handle over one database.

    Wraps the serving layer (:class:`~repro.session.ArtifactStore`),
    which it owns: :meth:`clear_cache` and :meth:`close` drop the
    store's artifacts.  Every :meth:`prepare` is cache-aware planning,
    so repeated or sibling-order requests share dictionary encodings,
    materialized bag relations, and counting forests.  Thread-safe:
    the store's builds synchronize per artifact, so concurrent threads
    never duplicate a preprocessing pass — and never serialize behind
    an unrelated one.

    Construct through :func:`connect` — with a URL instead of a
    database, :func:`connect` returns the wire twin of this class
    (:class:`~repro.server.client.HTTPConnection`) and ``prepare``
    returns remote views with the same Sequence semantics.
    """

    def __init__(self, store: ArtifactStore):
        self._store = store
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop the caches and refuse further ``prepare`` calls."""
        if not self._closed:
            self._store.clear()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("connection is closed")

    # -- the one API -------------------------------------------------------

    def prepare(
        self,
        query,
        order=None,
        prefix=None,
        projected: frozenset[str] | set[str] = frozenset(),
        at_version: int | None = None,
    ) -> "AnswerView":
        """Preprocess ``query`` and return its sorted answers as a view.

        Args:
            query: a :class:`~repro.query.query.JoinQuery` or its text.
            order: the lexicographic variable order; ``None`` lets the
                cache-aware planner choose the cheapest one.
            prefix: with ``order=None``, a required order prefix — the
                planner picks the cheapest completion (Definition 49).
            projected: variables to project away (must form a suffix of
                an explicit ``order``).
            at_version: pin the view to a retained MVCC snapshot
                instead of the current head; raises
                :class:`~repro.errors.StaleViewError` when that
                version is no longer retained.
        """
        self._check_open()
        access, version = self._store.access_versioned(
            query,
            order=order,
            prefix=prefix,
            projected=projected,
            at_version=at_version,
        )
        return AnswerView(access, store=self._store, version=version)

    def _read(
        self, query, order=None, prefix=None, at_version=None
    ) -> "AnswerView":
        """An unpinned view for one protocol request.

        It reads the resolved structure, which is immutable, for the
        length of the request, so it takes no snapshot pin and no
        finalizer; ``at_version`` (default: the head) is served
        exactly, as in :meth:`prepare`.
        """
        self._check_open()
        access, version = self._store.access_versioned(
            query, order=order, prefix=prefix, at_version=at_version
        )
        return AnswerView(access, version=version)

    def plan(self, query, prefix=None) -> OrderReport:
        """The order :meth:`prepare` would serve ``query`` with."""
        self._check_open()
        if isinstance(query, str):
            query = parse_query(query)
        return self._store.plan(query, prefix)

    # -- mutations ---------------------------------------------------------

    def apply(self, delta) -> int:
        """Apply a :class:`~repro.data.delta.Delta` of tuple inserts
        and deletes; returns the new database version.

        Maintenance is incremental where order-preservation allows
        (shared dictionary extended in place, untouched relations and
        their cached artifacts reused).  Views prepared before the
        delta keep serving their MVCC snapshot while it stays
        retained; :class:`~repro.errors.StaleViewError` is raised
        only once the snapshot is evicted.  A delta that changes
        nothing *effective* (every insert already present, every
        delete already absent) is a no-op: no version bump, current
        version returned.
        """
        self._check_open()
        return self._store.apply(delta)

    def insert(self, relation: str, rows) -> int:
        """Insert ``rows`` into ``relation``; the new database version."""
        return self.apply(Delta(inserts={relation: rows}))

    def delete(self, relation: str, rows) -> int:
        """Delete ``rows`` from ``relation``; the new database version."""
        return self.apply(Delta(deletes={relation: rows}))

    @property
    def db_version(self) -> int:
        """The served database's version (bumped by :meth:`apply`)."""
        return self._store.db_version

    # -- observability -----------------------------------------------------

    @property
    def database(self) -> Database:
        return self._store.database

    @property
    def engine_name(self) -> str:
        return self._store.engine.name

    @property
    def session(self) -> ArtifactStore:
        """The serving engine room (caches, planner) behind this handle."""
        return self._store

    def stats(self) -> dict:
        """An atomic snapshot of the store's counters (plain dicts):
        the request/work counters and the per-kind cache counters at
        the top level, everything under ``"store"``."""
        store = self._store.cache_stats()
        out = {
            key: store[key]
            for key in StoreStats.WORK + ArtifactStore.KINDS
        }
        out["store"] = store
        return out

    def clear_cache(self) -> None:
        """Drop every cached artifact (counters are kept)."""
        self._check_open()
        self._store.clear()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Connection({self.database!r}, "
            f"engine={self.engine_name!r}, {state})"
        )


class WindowedAnswers(Sequence):
    """The window and inverse-access laws every answer view obeys.

    Subclasses supply three primitives — :meth:`_resolve` (batch
    positional fetch of *underlying* indices), :meth:`_rank_underlying`
    (inverse access in the un-windowed sequence, ``None`` for
    non-answers), and :meth:`_subview` (rewrap a narrowed ``range``
    window) — and inherit the whole ``Sequence`` surface: negative
    indices, lazy slice sub-views (steps included), chunked
    ``__iter__``/``__reversed__``, :meth:`rank` / ``in`` /
    :meth:`index` / :meth:`count`, and the order-statistics task layer
    (:meth:`median`, :meth:`quantile`, :meth:`page`, :meth:`sample`,
    :meth:`boxplot`).  One implementation keeps the local view
    (:class:`AnswerView`) and the HTTP view
    (:class:`~repro.server.client.RemoteAnswerView`) law-identical —
    the cross-engine Sequence-law suite runs against both.
    """

    #: Batch size of ``__iter__``/``__reversed__``.
    ITER_CHUNK = 1024

    __slots__ = ("_window",)

    # -- subclass primitives -----------------------------------------------

    def _resolve(self, underlying: list[int]) -> list[tuple]:
        """Answer tuples at the given *underlying* (pre-window) indices."""
        raise NotImplementedError

    def _rank_underlying(self, row: tuple) -> int | None:
        """The pre-window rank of ``row``, or ``None`` if no answer."""
        raise NotImplementedError

    def _subview(self, window: range) -> "WindowedAnswers":
        """This view narrowed to ``window`` (lazily — nothing copied)."""
        raise NotImplementedError

    @property
    def query(self):
        raise NotImplementedError

    # -- Sequence: positional access ---------------------------------------

    def __len__(self) -> int:
        return len(self._window)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self._subview(self._window[item])
        try:
            underlying = self._window[operator.index(item)]
        except IndexError:
            n = len(self._window)
            raise OutOfBoundsError(
                f"index {item} out of range [-{n}, {n})"
            ) from None
        return self._resolve([underlying])[0]

    def tuple_at(self, index: int) -> tuple:
        """Positional access (the ``SupportsDirectAccess`` protocol)."""
        return self[index]

    def tuples_at(self, indices) -> list[tuple]:
        """Batch positional access: one backend batch for ``indices``."""
        window = self._window
        n = len(window)
        underlying = []
        for index in indices:
            index = operator.index(index)
            try:
                underlying.append(window[index])
            except IndexError:
                raise OutOfBoundsError(
                    f"index {index} out of range [-{n}, {n})"
                ) from None
        return self._resolve(underlying)

    def __iter__(self) -> Iterator[tuple]:
        window = self._window
        for start in range(0, len(window), self.ITER_CHUNK):
            chunk = window[start : start + self.ITER_CHUNK]
            yield from self._resolve(list(chunk))

    def __reversed__(self) -> Iterator[tuple]:
        return iter(self[::-1])

    # -- Sequence: inverse access ------------------------------------------

    def rank(self, row: tuple) -> int:
        """The index of answer ``row`` in this view (inverse access).

        One counting-forest descent with a per-level binary search —
        ``O(ℓ log |D|)``, no enumeration — then an O(1) window
        translation for sliced views.  Raises
        :class:`~repro.errors.NotAnAnswerError` (a ``ValueError``) when
        ``row`` is not an answer, or lies outside this view's window.
        """
        underlying = self._rank_underlying(row)
        if underlying is None:
            raise NotAnAnswerError(
                f"{row!r} is not an answer of {self.query}"
            )
        try:
            return self._window.index(underlying)
        except ValueError:
            raise NotAnAnswerError(
                f"{row!r} is an answer of {self.query} but outside "
                f"this view's window"
            ) from None

    def ranks(self, rows) -> list[int | None]:
        """Batch :meth:`rank`: the view index of each row, ``None`` for
        non-answers (and answers outside the window) instead of raising."""
        out = []
        for row in rows:
            try:
                out.append(self.rank(row))
            except NotAnAnswerError:
                out.append(None)
        return out

    def __contains__(self, row) -> bool:
        try:
            self.rank(row)
        except NotAnAnswerError:
            return False
        return True

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        """``Sequence.index`` without enumeration: one rank lookup."""
        position = self.rank(value)  # NotAnAnswerError is a ValueError
        n = len(self)
        if start < 0:
            start = max(n + start, 0)
        if stop is None:
            stop = n
        elif stop < 0:
            stop += n
        if not start <= position < stop:
            raise ValueError(
                f"{value!r} is not in view[{start}:{stop}]"
            )
        return position

    def count(self, value) -> int:
        """0 or 1: answers are distinct and the window never repeats."""
        return 1 if value in self else 0

    # -- the task layer ----------------------------------------------------

    def median(self) -> tuple:
        """The middle answer of this view."""
        return tasks.median(self)

    def quantile(self, fraction: Fraction | float) -> tuple:
        """The answer at rank ``⌊fraction * (len-1)⌋`` (nearest-rank)."""
        return tasks.quantile(self, fraction)

    def boxplot(self) -> dict[str, tuple]:
        """Five-number summary, resolved in one batch access."""
        return tasks.boxplot(self)

    def page(self, page_number: int, page_size: int) -> list[tuple]:
        """Ranked pagination: answers ``[page*size, (page+1)*size)``."""
        return tasks.page(self, page_number, page_size)

    def sample(self, k: int, seed: int | None = None) -> list[tuple]:
        """``k`` uniform answers without repetition, one batch access."""
        return tasks.sample(self, k, seed)

    def to_list(self) -> list[tuple]:
        """Materialize the view (chunked batches under the hood)."""
        return list(self)


class AnswerView(WindowedAnswers):
    """The sorted answers of a prepared query, as a lazy ``Sequence``.

    ``view[k]`` is the k-th answer tuple in ``O(ℓ log |D|)``; negative
    indices count from the end and slices return lazy sub-views (a
    ``range`` window over the same preprocessed structure — nothing is
    copied or enumerated).  Inverse access goes the other way:
    :meth:`rank` maps an answer tuple back to its index by descending
    the counting forest with one binary search per level, which also
    powers ``in`` and :meth:`index` without any enumeration, so
    ``view[view.rank(t)] == t`` round-trips.

    Iteration (and ``reversed``) resolves indices in chunked batches —
    vectorized level-synchronously under the numpy engine — while
    staying lazy.  The order-statistics task layer lives here too:
    :meth:`median`, :meth:`quantile`, :meth:`page`, :meth:`sample`,
    :meth:`boxplot` all delegate to the batch kernels.  (The window
    and inverse-access laws themselves live in
    :class:`WindowedAnswers`, shared with the HTTP client's remote
    view.)
    """

    __slots__ = (
        "_access",
        "_store",
        "_version",
        "_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        access: DirectAccess,
        window: range | None = None,
        *,
        store: ArtifactStore | None = None,
        version: int | None = None,
    ):
        self._access = access
        self._window = (
            range(len(access)) if window is None else window
        )
        # MVCC version pinning (facade-prepared views): the view takes
        # a reference on its snapshot in the store's SnapshotPlane, so
        # it keeps serving across later mutations; the last close (or
        # GC, via the finalizer) lets the store drop the snapshot and
        # its artifacts.  Unpinned views (direct construction over a
        # standalone DirectAccess) skip all of it — there is no
        # mutable store behind them.
        self._store = store
        self._version = version
        self._finalizer = None
        if store is not None and version is not None:
            if store.pin_version(version):
                self._finalizer = weakref.finalize(
                    self, store.release_version, version
                )

    def _check_fresh(self) -> None:
        if self._store is None:
            return
        if not self._store.is_readable(self._version):
            raise StaleViewError(
                f"view was prepared at db_version {self._version}, "
                f"database is now at {self._store.db_version} and "
                "the snapshot is no longer retained; re-prepare the "
                "query for a fresh view"
            )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release this view's snapshot pin (idempotent).

        Closing the last view of an out-of-retention-window version
        lets the store drop that snapshot and garbage-collect its
        cached artifacts; further reads on this view raise
        :class:`~repro.errors.StaleViewError` once the snapshot is
        gone.  Views are also released automatically when
        garbage-collected — ``close`` just makes the release (and the
        store-side GC) deterministic.
        """
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def __enter__(self) -> "AnswerView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def db_version(self) -> int | None:
        """The database version this view is pinned to (``None`` for
        unpinned views built outside a connection)."""
        return self._version

    def __len__(self) -> int:
        # Counts obey the same snapshot contract as answers: served
        # from the pinned version while it is retained, loud
        # StaleViewError once it is gone.
        self._check_fresh()
        return len(self._window)

    # -- the windowed-Sequence primitives ----------------------------------

    def _resolve(self, underlying: list[int]) -> list[tuple]:
        self._check_fresh()
        return self._access.tuples_at(underlying)

    def _rank_underlying(self, row: tuple) -> int | None:
        self._check_fresh()
        return self._access.rank_of(row)

    def _subview(self, window: range) -> "AnswerView":
        return AnswerView(
            self._access,
            window,
            store=self._store,
            version=self._version,
        )

    def ranks(self, rows) -> list[int | None]:
        """Batch :meth:`rank` through the engine's vectorized
        ``ranks_of`` (one batched forest descent, not per-row calls)."""
        self._check_fresh()
        out = []
        for underlying in self._access.ranks_of(rows):
            if underlying is None:
                out.append(None)
                continue
            try:
                out.append(self._window.index(underlying))
            except ValueError:
                out.append(None)
        return out

    # -- provenance --------------------------------------------------------

    @property
    def query(self):
        return self._access.query

    @property
    def order(self):
        """The variable order the answers are sorted by."""
        return self._access.order

    @property
    def columns(self) -> tuple[str, ...]:
        """The variables of each answer tuple, in order position."""
        return self._access.free_variables

    @property
    def engine_name(self) -> str:
        return self._access.engine_name

    def op_counters(self) -> dict[str, int]:
        """Snapshot of the engine's operation counters (for assertions
        that a lookup did no enumeration — see
        :class:`~repro.engine.base.OpCounters`)."""
        return self._access._engine.counters.snapshot()

    def __repr__(self) -> str:
        window = self._window
        full = window == range(len(self._access))
        span = "" if full else f", window={window!r}"
        # Window length directly: repr must stay usable (debuggers,
        # logs) even on a stale view, where len(self) raises.
        return (
            f"AnswerView({self.query}, order={list(self.order)}, "
            f"len={len(window)}{span})"
        )


__all__ = ["AnswerView", "Connection", "WindowedAnswers", "connect"]
