"""The serving layer: one database, many direct-access requests.

Theorem 44 makes preprocessing cost an exact function of the query and
the variable order, which means a long-lived service can *plan*: many
orders induce the same disruption-free decomposition and can share one
``O(|D|^ι)`` preprocessing pass, and every query over one database can
share one dictionary encoding.  :class:`ArtifactStore` is that service
core, one per database:

* it pins an execution engine and lets it pre-encode the database once
  (shared-domain dictionary under numpy, warm sorted caches under
  Python);
* each :meth:`~ArtifactStore.access` request reuses, in order of
  coarseness, the exact :class:`~repro.core.access.DirectAccess`
  structure, the counting forest, or the materialized bag relations of
  any earlier request whose decomposition matches — verified per
  request by the :class:`StoreStats` counters;
* when no order is given, the request is planned through
  :mod:`repro.core.advisor`, *cache-aware*: among orders tied at the
  optimal exponent, one whose decomposition is already cached wins.

One lock around whole requests would be correct but would serialize
them: while one thread pays an ``O(|D|^ι)`` preprocessing pass, every
other thread would wait, even those asking for artifacts that already
exist or for a *different* decomposition.  For a serving process
(``repro serve``) that is the difference between N workers and one.
The store splits that lock three ways:

* a **registry lock** — held only for dictionary lookups, cache
  insertion, and every counter update (microseconds, never across
  tuple work);
* **per-artifact build locks** — one lock per cache key, created on
  demand, held across the actual build.  Two workers requesting the
  *same* cold artifact serialize on its key (the second finds it warm:
  one preprocessing pass total); two workers requesting *different*
  decompositions build concurrently;
* no lock at all for serving — the cached structures
  (:class:`~repro.core.access.DirectAccess`, counting forests, bag
  tables) are immutable after construction, so reads need no
  coordination.

Artifacts are keyed by
:meth:`~repro.core.decomposition.DisruptionFreeDecomposition.cache_key`
(canonical across every order inducing the same decomposition) and
evicted cost-aware: each entry remembers its decomposition exponent
``ι``, and overflow sacrifices the cheapest-to-rebuild entry first
(:class:`~repro.session.cache.CostAwareCache`), not the least recent.

The store is **versioned and multi-version** (MVCC): every artifact is
registered under ``(db_version, cache_key)``, and
:meth:`ArtifactStore.apply` applies a
:class:`~repro.data.delta.Delta`, bumps the version, and walks the
caches once — artifacts whose declared relation dependencies are
disjoint from the delta's touched relations are *carried* to the new
version (``artifacts_carried``), the rest stop serving the head
(``artifacts_invalidated``).  A decomposition that never touches a
mutated relation therefore keeps serving from cache across mutations,
with zero rebuilds — the generation counters in :meth:`cache_stats`
prove it.  In-flight builds that captured the old version finish
harmlessly: their artifact lands under the old version's key, is never
served to new-version readers, and is garbage-collected with that
version (or not cached at all when the version is already gone).

History does not vanish on apply: a
:class:`~repro.session.mvcc.SnapshotPlane` retains the last K
``(db_version, database)`` snapshots with per-version refcounts, so a
version-pinned view **keeps serving its snapshot** while new requests
see the head (:meth:`database_at` resolves any retained version).  One
rule governs old artifacts: an artifact cached at version ``v`` stays
cached until ``v`` leaves the plane (``artifacts_gcd``) or the cache's
own capacity evicts it, so head-invalidated artifacts keep serving
reads pinned to their version (``artifacts_retained``) and are the
bases the read after a write patches from (:meth:`take_base`).
:class:`~repro.errors.StaleViewError` survives only as the fallback
for reads of an *evicted* snapshot, or of a version ahead of the head.

Next to the ``access`` cache sits the **request map**
(:meth:`ArtifactStore.lookup` / :meth:`ArtifactStore.remember`): what a
read names — query text, order, prefix, projected set, exactly as sent
— at the version it is served at, mapped to the key of the
``DirectAccess`` it resolved to.  A warm read is one lookup: no parse,
no plan, no key derivation.  An entry lives exactly as long as its
artifact is resident at that version (eviction, snapshot GC and
:meth:`ArtifactStore.clear` drop it; a carried artifact takes it
along), and an artifact keeps one entry, so the map needs no capacity
of its own.

With a :class:`~repro.data.wal.WriteAheadLog` attached (``wal=``),
every effective delta is appended — checksummed and fsynced — *before*
the in-memory apply, so a crash between append and apply is repaired
by replay-on-boot, and ``repro serve --wal`` restarts warm and
current.  An *effectively empty* delta (every insert already present,
every delete already absent) is a no-op: no version bump, no log
record, no invalidation (``noop_deltas``).

Every thread of a serving process reads through the one store; the
artifact caches and the once-per-database encoded dictionary are
shared by every request:

    >>> from repro.session.artifacts import ArtifactStore
    >>> store = ArtifactStore({"R": {(1, 2), (3, 2)}, "S": {(2, 7)}})
    >>> len(store.access("Q(x, y, z) :- R(x, y), S(y, z)",
    ...                  order=["y", "x", "z"]))
    2
    >>> len(store.access("Q(x, y, z) :- R(x, y), S(y, z)",
    ...                  order=["y", "z", "x"]))    # sibling order
    2
    >>> store.stats.bag_materializations    # one decomposition, built once
    3
    >>> store.stats.database_encodes
    1

This module is the engine room behind the public facade
(:func:`repro.connect` / :class:`repro.Connection`): prefer the facade
in application code.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial

from repro.core.access import DirectAccess
from repro.core.advisor import (
    OrderReport,
    rank_orders,
    rank_orders_with_prefix,
)
from repro.core.decomposition import DisruptionFreeDecomposition
from repro.core.preprocessing import Preprocessing
from repro.data.database import Database
from repro.engine.base import Engine
from repro.engine.registry import resolve_engine, use_engine
from repro.errors import OrderError, StaleViewError
from repro.query.parser import parse_query
from repro.query.query import JoinQuery
from repro.query.variable_order import VariableOrder
from repro.session.cache import CacheStats, CostAwareCache
from repro.session.mvcc import DEFAULT_RETAIN, SnapshotPlane

#: Sentinel for "dependencies unknown": artifacts registered without a
#: ``relations`` declaration are invalidated by *every* delta — the
#: safe default for direct store users.  Pass a ``frozenset`` of relation
#: names for selective invalidation, or ``None`` for data-independent
#: artifacts that survive all deltas.
DEPENDS_ON_ALL = object()


def _as_order(order) -> VariableOrder:
    if isinstance(order, VariableOrder):
        return order
    return VariableOrder(list(order))


@dataclass
class StoreStats:
    """The counters of one :class:`ArtifactStore`, one set per store.

    Each artifact kind keeps one :class:`CacheStats`.  The request
    counters: ``requests`` counts served :meth:`ArtifactStore.access`
    calls, ``advisor_calls`` plans actually computed (not served from
    the ``plans`` cache), ``cache_preferred_orders`` plans that picked
    a warm order over an equally cheap cold one.

    ``bag_materializations`` / ``forest_builds`` count *work done*, not
    lookups: a request served entirely from cache leaves both untouched
    — the property the acceptance tests pin down.  They count bag
    relations and bag indexes built **from scratch**.  The first read
    after a write instead derives them from the previous version's
    (either engine; under numpy, a code-stable delta): ``bag_patches``
    counts bag relations moved forward by the delta rule — every bag
    reading a touched relation — and ``forest_patches`` bag indexes
    patched in place of a build.  A bag that reads no touched relation
    is shared with the previous version and counts in neither; a patch
    that falls back (renumbering delta, a domain that cannot be
    ordered, object-dtype weights, a missing base) counts in the
    from-scratch pair.

    The build counters are the serving-layer acceptance evidence:

    * ``database_encodes`` — how many times the engine actually encoded
      the database; stays 1 no matter how many workers attach;
    * ``artifact_builds`` — builds that really ran (a worker that waited
      on another worker's in-flight build does not count);
    * ``build_waits`` — times a worker blocked on a per-artifact lock
      and then found the artifact warm (the de-duplication at work);
    * ``build_concurrency_peak`` — the high-water mark of builds running
      *simultaneously*; ``>= 2`` proves two artifacts were built under
      different locks, which a single store-wide lock can never show.

    The mutation (generation) counters are the incremental-maintenance
    acceptance evidence:

    * ``deltas_applied`` — database versions minted by :meth:`apply`;
    * ``noop_deltas`` — applies that turned out effectively empty
      (validated, then skipped: no version bump, no invalidation);
    * ``incremental_encodes`` / ``full_reencodes`` — whether the
      engine maintained its database preparation in place (shared
      dictionary extended code-stably) or had to renumber or redo it;
    * ``rows_encoded`` — rows that went through interpreter-level
      encoding during :meth:`apply`: the delta's own rows while the
      encoding is carried forward (exactly 1 for a one-row delta,
      whatever ``|R|``), every row of the database only when it is
      encoded from scratch;
    * ``artifacts_carried`` — artifacts re-keyed to the new version
      because their decomposition touches no mutated relation (served
      warm after the delta, zero rebuilds);
    * ``artifacts_invalidated`` — artifacts a delta stopped serving at
      the head;
    * ``artifacts_retained`` — of those, the ones kept under their old
      version because the snapshot plane still retains it (MVCC);
    * ``artifacts_gcd`` — old-version artifacts garbage-collected when
      their version left the snapshot plane.
    """

    #: The request and work counters, which
    #: :meth:`repro.Connection.stats` also lists at its top level.
    WORK = (
        "requests",
        "advisor_calls",
        "cache_preferred_orders",
        "bag_materializations",
        "forest_builds",
        "bag_patches",
        "forest_patches",
    )

    preprocessing: CacheStats = field(default_factory=CacheStats)
    forest: CacheStats = field(default_factory=CacheStats)
    access: CacheStats = field(default_factory=CacheStats)
    plans: CacheStats = field(default_factory=CacheStats)
    decompositions: CacheStats = field(default_factory=CacheStats)
    requests: int = 0
    advisor_calls: int = 0
    cache_preferred_orders: int = 0
    bag_materializations: int = 0
    forest_builds: int = 0
    bag_patches: int = 0
    forest_patches: int = 0
    database_encodes: int = 0
    artifact_builds: int = 0
    build_waits: int = 0
    build_concurrency_peak: int = 0
    deltas_applied: int = 0
    noop_deltas: int = 0
    incremental_encodes: int = 0
    full_reencodes: int = 0
    rows_encoded: int = 0
    artifacts_carried: int = 0
    artifacts_invalidated: int = 0
    artifacts_retained: int = 0
    artifacts_gcd: int = 0

    def of(self, kind: str) -> CacheStats:
        return getattr(self, kind)

    def as_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in self.WORK},
            "database_encodes": self.database_encodes,
            "artifact_builds": self.artifact_builds,
            "build_waits": self.build_waits,
            "build_concurrency_peak": self.build_concurrency_peak,
            "deltas_applied": self.deltas_applied,
            "noop_deltas": self.noop_deltas,
            "incremental_encodes": self.incremental_encodes,
            "full_reencodes": self.full_reencodes,
            "rows_encoded": self.rows_encoded,
            "artifacts_carried": self.artifacts_carried,
            "artifacts_invalidated": self.artifacts_invalidated,
            "artifacts_retained": self.artifacts_retained,
            "artifacts_gcd": self.artifacts_gcd,
            "preprocessing": self.preprocessing.as_dict(),
            "forest": self.forest.as_dict(),
            "access": self.access.as_dict(),
            "plans": self.plans.as_dict(),
            "decompositions": self.decompositions.as_dict(),
        }


class _RequestMap:
    """What a read names, at a version → the key of the ``access``
    artifact it resolved to, and back.

    The way back lets an artifact that leaves the cache take its entry
    along.  An artifact keeps one entry (the newest), so the map never
    outgrows the ``access`` cache.  It holds no reference to the store,
    so the cache's eviction hook creates no reference cycle.  Not
    locked: the store calls it under its registry lock.
    """

    def __init__(self) -> None:
        self._keys: dict[tuple, object] = {}  # (version, request) -> key
        self._requests: dict[tuple, object] = {}  # (version, key) -> request

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, version: int, request):
        return self._keys.get((version, request))

    def remember(self, version: int, request, key) -> None:
        self.forget((version, key))
        previous = self._keys.get((version, request))
        if previous is not None:
            del self._requests[(version, previous)]
        self._keys[(version, request)] = key
        self._requests[(version, key)] = request

    def forget(self, vkey: tuple) -> None:
        """The artifact at ``vkey`` = ``(version, key)`` is leaving."""
        request = self._requests.pop(vkey, None)
        if request is not None:
            del self._keys[(vkey[0], request)]

    def carry(self, vkey: tuple, version: int) -> None:
        """The artifact at ``vkey`` moves to ``version``; so does its
        entry."""
        request = self._requests.get(vkey)
        if request is not None:
            self.forget(vkey)
            self.remember(version, request, vkey[1])

    def clear(self) -> None:
        self._keys.clear()
        self._requests.clear()


def _forget(deps: dict, requests: _RequestMap, kind: str, vkey: tuple):
    """The artifact at ``vkey`` leaves ``kind``'s cache: its dependency
    record and, for ``access``, its request entry go with it."""
    deps.pop((kind, vkey), None)
    if kind == "access":
        requests.forget(vkey)


class ArtifactStore:
    """Amortized direct access for repeated requests over one database.

    Artifacts are read-only once built and shared by every request.

    Args:
        database: the served database (a :class:`Database` or a plain
            mapping of relation names to tuple iterables, converted).
        engine: execution engine (name, instance, or ``None`` for a
            fresh instance of the process-global active engine's kind);
            every request is served with this engine, so cached
            artifacts are internally consistent.
        capacity: per-kind cache capacity (``None`` = unbounded,
            ``0`` = caching disabled).
        retain_versions: how many ``(db_version, database)`` snapshots
            the MVCC plane keeps (default
            :data:`~repro.session.mvcc.DEFAULT_RETAIN`); open views
            extend a version's lifetime beyond the window until their
            last close.
        wal: an optional :class:`~repro.data.wal.WriteAheadLog`;
            :meth:`apply` appends every effective delta to it *before*
            the in-memory apply.
    """

    #: Artifact kinds, one cache each.  ``preprocessing`` holds bag
    #: tables, ``forest`` counting forests (a read after a write
    #: patches both from the previous version's), ``access`` assembled
    #: DirectAccess structures; ``plans`` and ``decompositions`` hold
    #: the (data-independent) planner products.
    KINDS = ("preprocessing", "forest", "access", "plans", "decompositions")

    def __init__(
        self,
        database: Database,
        engine: str | Engine | None = None,
        capacity: int | None = 64,
        db_version: int = 0,
        retain_versions: int | None = None,
        wal=None,
    ):
        if not isinstance(database, Database):
            database = Database(database)
        self._database = database
        # A store recovered from a WAL starts mid-history, at the
        # replayed version (default 0 = a brand-new database).
        self._db_version = db_version
        self.wal = wal
        self.snapshots = SnapshotPlane(
            DEFAULT_RETAIN if retain_versions is None else retain_versions
        )
        self.snapshots.record(db_version, database)
        # Version releases arrive from AnswerView weakref finalizers,
        # which can fire at any allocation point — including while this
        # thread already holds the registry lock.  They enqueue here
        # (deque.append is atomic) and drain at the next safe entry.
        self._pending_releases: deque[int] = deque()
        self.engine = resolve_engine(engine)
        self.stats = StoreStats()
        # Short-held: protects the cache maps, the request map, the
        # build-lock registry, and every counter — never held across a
        # build or an engine call.
        self._registry_lock = threading.Lock()
        # Serializes whole mutations (the engine's delta application
        # runs outside the registry lock; two racing deltas must not
        # interleave their encode work).
        self._mutation_lock = threading.Lock()
        self._build_locks: dict[tuple, threading.Lock] = {}
        # (kind, (version, key)) -> the relation names a resident
        # artifact was built from (``None`` = data-independent, always
        # carried; ``DEPENDS_ON_ALL`` = unknown, invalidated by every
        # delta).
        self._deps: dict[tuple, object] = {}
        self._building = 0
        # Builds nest (an access build runs the preprocessing and
        # forest builds inside it); concurrency is counted per
        # *thread*, not per nesting level, so the peak really means
        # "this many workers were building at the same instant".
        self._build_depth = threading.local()
        self._requests = _RequestMap()
        # Bound to the records, not to the store, so the caches'
        # eviction hooks create no reference cycle.
        self._forget = partial(_forget, self._deps, self._requests)
        self._caches = {
            kind: CostAwareCache(
                capacity,
                self.stats.of(kind),
                on_evict=partial(self._forget, kind),
            )
            for kind in self.KINDS
        }
        self._encoded = False
        self.ensure_encoded()

    # -- the live database -------------------------------------------------

    @property
    def database(self) -> Database:
        """The currently served database (the newest version)."""
        return self._database

    @property
    def db_version(self) -> int:
        """Monotonic version, bumped by every :meth:`apply`."""
        return self._db_version

    def current(self) -> tuple[int, Database]:
        """An atomic ``(db_version, database)`` snapshot.

        Requests capture this pair once so a delta landing mid-request
        cannot mix versions: the build reads the snapshot database and
        registers its artifacts under the snapshot version.
        """
        with self._registry_lock:
            return self._db_version, self._database

    # -- MVCC: retained versions and view pins -----------------------------

    def database_at(self, version: int) -> Database:
        """The retained database for ``version`` — the head, or an
        MVCC snapshot.  Raises :class:`~repro.errors.StaleViewError`
        when the snapshot was evicted or the version is ahead of the
        head (a client that outlived a restart without a WAL)."""
        self._drain_releases()
        with self._registry_lock:
            if version == self._db_version:
                return self._database
            if version > self._db_version:
                raise StaleViewError(
                    f"db_version {version} is ahead of the head "
                    f"({self._db_version}); re-prepare the query for "
                    "a fresh view"
                )
            database = self.snapshots.get(version)
            if database is None:
                raise StaleViewError(
                    f"db_version {version} was evicted (head is "
                    f"{self._db_version}, retained: "
                    f"{list(self.snapshots.versions())}); re-prepare "
                    "the query for a fresh view"
                )
            return database

    def is_readable(self, version: int) -> bool:
        """Whether a view pinned at ``version`` may still serve: the
        head, or a retained snapshot."""
        self._drain_releases()
        with self._registry_lock:
            if version == self._db_version:
                return True
            return version in self.snapshots

    def pin_version(self, version: int) -> bool:
        """Take a view reference on ``version`` (``False`` when it is
        no longer retained — the view is born already stale)."""
        self._drain_releases()
        with self._registry_lock:
            return self.snapshots.pin(version)

    def release_version(self, version: int) -> None:
        """Drop a view reference.  Safe to call from ``weakref``
        finalizers: the release is queued (lock-free) and processed at
        the next store entry, so a garbage-collection cycle triggered
        while this thread holds the registry lock cannot deadlock."""
        self._pending_releases.append(version)

    def _drain_releases(self) -> None:
        if not self._pending_releases:
            return
        with self._registry_lock:
            while True:
                try:
                    version = self._pending_releases.popleft()
                except IndexError:
                    break
                self.snapshots.release(version)
                if version not in self.snapshots:
                    self._purge_versions({version})

    def _purge_versions(self, versions: set[int]) -> None:
        # Registry lock held by the caller: drop every artifact cached
        # under a no-longer-retained version.
        for kind in self.KINDS:
            for vkey in self._caches[kind].keys():
                if vkey[0] in versions:
                    self._drop(kind, vkey)
                    self.stats.artifacts_gcd += 1

    def _drop(self, kind: str, vkey: tuple):
        # Registry lock held by the caller: remove one artifact with
        # its dependency record and any request resolved to it.
        self._forget(kind, vkey)
        return self._caches[kind].pop(vkey)

    # -- the request map ---------------------------------------------------

    def lookup(self, version: int, request):
        """The ``access`` artifact ``request`` resolved to at
        ``version``, or ``None`` when that key is cold.

        ``request`` is what a read names — (query, order, prefix,
        projected) as given — so a warm read skips parsing, planning
        and key derivation.  A hit counts one served request and one
        ``access`` hit, in the same critical section as the lookup; a
        miss counts nothing, because the caller's cold path does its
        own counting.
        """
        self._drain_releases()
        with self._registry_lock:
            key = self._requests.get(version, request)
            if key is None:
                return None
            access = self._caches["access"].get((version, key))
            if access is not None:
                self.stats.requests += 1
            return access

    def remember(self, version: int, request, key) -> None:
        """Map ``request`` at ``version`` to the resident ``access``
        artifact ``key``.  An artifact keeps one request (the newest),
        so the map never holds more entries than the store holds
        ``access`` artifacts; a non-resident artifact (caching off,
        already evicted or invalidated) is not mapped."""
        with self._registry_lock:
            if (version, key) in self._caches["access"]:
                self._requests.remember(version, request, key)

    def request_count(self) -> int:
        """How many requests the map currently resolves (at most the
        number of resident ``access`` artifacts)."""
        with self._registry_lock:
            return len(self._requests)

    # -- the build protocol ------------------------------------------------

    #: Build-lock registry is pruned (unheld locks dropped) past this
    #: size, so a long-lived server's evicted keys cannot leak locks.
    LOCK_REGISTRY_LIMIT = 1024

    def _build_lock(self, kind: str, key) -> threading.Lock:
        with self._registry_lock:
            if len(self._build_locks) > self.LOCK_REGISTRY_LIMIT:
                # A held lock is always kept: its builder (and anyone
                # blocked on it) still references that exact object.
                self._build_locks = {
                    k: lock
                    for k, lock in self._build_locks.items()
                    if lock.locked() or k[0] == "encode"
                }
            return self._build_locks.setdefault(
                (kind, key), threading.Lock()
            )

    def ensure_encoded(self) -> None:
        """Encode the database exactly once, no matter how many workers
        attach (shared-domain dictionary under numpy, warm sort caches
        under Python)."""
        if self._encoded:
            return
        with self._build_lock("encode", None):
            if self._encoded:
                return
            self.engine.encode_database(self.database)
            with self._registry_lock:
                self.stats.database_encodes += 1
                self._encoded = True

    def _cache(self, kind: str, vkey: tuple, value, cost, relations) -> None:
        # Registry lock held by the caller.  A version the plane no
        # longer keeps caches nothing (an in-flight build that lost the
        # race with its version's eviction would never be collected),
        # and only a resident artifact gets a dependency record (the
        # cache may decline the put or evict it at once), so the
        # records never outnumber the artifacts.
        if vkey[0] not in self.snapshots:
            return
        self._caches[kind].put(vkey, value, cost=cost)
        if vkey in self._caches[kind]:
            self._deps[(kind, vkey)] = relations

    def get(self, kind: str, key, version: int | None = None):
        """Cached artifact or ``None``; counts a hit or a miss.
        ``version`` defaults to the current database version."""
        with self._registry_lock:
            if version is None:
                version = self._db_version
            return self._caches[kind].get((version, key))

    def put(
        self, kind: str, key, value, cost=0,
        version: int | None = None,
        relations=DEPENDS_ON_ALL,
    ) -> None:
        """Register an artifact under the given (or current) version
        (a version the snapshot plane no longer keeps caches nothing).

        ``relations`` declares which relation names the artifact was
        built from, steering delta invalidation: a ``frozenset`` is
        invalidated only by deltas touching one of its members,
        ``None`` marks a data-independent artifact (plans,
        decompositions — carried across every delta), and the default
        :data:`DEPENDS_ON_ALL` is dropped by any delta.
        """
        with self._registry_lock:
            if version is None:
                version = self._db_version
            self._cache(kind, (version, key), value, cost, relations)

    def contains(
        self, kind: str, key, version: int | None = None
    ) -> bool:
        """Membership without touching counters or recency (the
        cache-aware planner's warm-order peek)."""
        with self._registry_lock:
            if version is None:
                version = self._db_version
            return (version, key) in self._caches[kind]

    def get_or_build(
        self,
        kind: str,
        key,
        builder,
        cost=0,
        counted: bool = False,
        version: int | None = None,
        relations=DEPENDS_ON_ALL,
    ):
        """The artifact under ``key``, building it at most once.

        A miss takes the *per-key* build lock, re-checks, and runs
        ``builder()`` while unrelated keys build concurrently.  ``cost``
        (the decomposition exponent) steers eviction.  Builder errors
        propagate and cache nothing, so a failed build does not poison
        the key.  ``counted=True`` means the caller already recorded
        this lookup's hit/miss (no double counting).  ``version`` pins
        the database version the artifact belongs to (default: the
        current one, resolved once at entry); ``relations`` declares
        its delta-invalidation dependencies as in :meth:`put`.
        """
        with self._registry_lock:
            if version is None:
                version = self._db_version
            vkey = (version, key)
            if counted:
                value = self._caches[kind].peek(vkey)
            else:
                value = self._caches[kind].get(vkey)
        if value is not None:
            return value
        while True:
            lock = self._build_lock(kind, vkey)
            with lock:
                with self._registry_lock:
                    # The registry may have pruned this lock between
                    # setdefault and acquire (it was unheld then); a
                    # stale lock no longer excludes other builders, so
                    # retake the registered one.
                    if self._build_locks.get((kind, vkey)) is not lock:
                        continue
                    # Double-check: another worker may have built it
                    # while we waited on the key lock.  peek() keeps
                    # the earlier miss honest (this worker did miss;
                    # it just did not build).
                    value = self._caches[kind].peek(vkey)
                    if value is not None:
                        self.stats.build_waits += 1
                        return value
                    depth = getattr(self._build_depth, "value", 0)
                    if depth == 0:
                        self._building += 1
                        self.stats.build_concurrency_peak = max(
                            self.stats.build_concurrency_peak,
                            self._building,
                        )
                self._build_depth.value = depth + 1
                try:
                    value = builder()
                finally:
                    self._build_depth.value = depth
                    if depth == 0:
                        with self._registry_lock:
                            self._building -= 1
                with self._registry_lock:
                    self.stats.artifact_builds += 1
                    self._cache(kind, vkey, value, cost, relations)
                return value

    # -- planning ----------------------------------------------------------

    #: Cache-aware planning inspects at most this many tied-optimal
    #: candidates per plan; beyond it (symmetric queries tie
    #: factorial-many orders) extra candidates add LP solves and memory
    #: but no real planning signal.
    PLAN_WINDOW = 16

    def _ranked(
        self,
        query: JoinQuery,
        prefix: VariableOrder | None,
        version: int | None = None,
    ) -> list[OrderReport]:
        key = (
            query.signature(),
            tuple(prefix) if prefix is not None else None,
        )

        def build_plan() -> list[OrderReport]:
            with self._registry_lock:
                self.stats.advisor_calls += 1
            # limit streams via heapq.nsmallest: only PLAN_WINDOW
            # reports are ever retained, not the factorial ranking.
            ranked = (
                rank_orders(query, limit=self.PLAN_WINDOW)
                if prefix is None
                else rank_orders_with_prefix(
                    query, prefix, limit=self.PLAN_WINDOW
                )
            )
            # Keep only the candidates plan() can ever pick — those
            # tied at the optimum, capped at PLAN_WINDOW (symmetric
            # queries can tie factorial-many orders) — and attach their decompositions for key
            # lookups and cache-free serving.  The <= PLAN_WINDOW
            # rebuilds duplicate work _rank discarded, but next to the
            # factorial ranking itself that is noise, and it keeps the
            # advisor API free of a retain-decompositions mode.
            best = ranked[0].iota
            return [
                replace(
                    report,
                    decomposition=self._decomposition_for(
                        key[0], query, report.order, version
                    ),
                )
                for report in ranked
                if report.iota == best
            ]

        # Plans are data-independent (``relations=None``): a delta
        # carries them to the new version instead of invalidating.
        return self.get_or_build(
            "plans", key, build_plan, version=version, relations=None,
        )

    def _decomposition_for(
        self,
        signature,
        query: JoinQuery,
        order: VariableOrder,
        version: int | None = None,
    ) -> DisruptionFreeDecomposition:
        key = (signature, tuple(order))
        return self.get_or_build(
            "decompositions",
            key,
            lambda: DisruptionFreeDecomposition(query, order),
            version=version,
            relations=None,
        )

    def plan(
        self,
        query: JoinQuery,
        prefix: VariableOrder | None = None,
        version: int | None = None,
    ) -> OrderReport:
        """The order the store would serve ``query`` with.

        The cheapest order by incompatibility number — among orders
        tied at the optimum, one whose decomposition already sits in the
        store is preferred (its preprocessing is free).
        """
        if prefix is not None:
            prefix = _as_order(prefix)
        ranked = self._ranked(query, prefix, version)
        best = ranked[0]
        signature = query.signature()
        for report in ranked:
            key = self._preprocessing_key(
                signature, report.decomposition
            )
            if self.contains("preprocessing", key, version=version):
                if report is not best:
                    with self._registry_lock:
                        self.stats.cache_preferred_orders += 1
                return report
        return best

    def _preprocessing_key(
        self, signature, decomposition: DisruptionFreeDecomposition
    ) -> tuple:
        return (
            signature,
            decomposition.cache_key(),
            self.engine.name,
        )

    # -- serving -----------------------------------------------------------

    def access(
        self,
        query: JoinQuery | str,
        order=None,
        prefix=None,
        projected: frozenset[str] | set[str] = frozenset(),
    ) -> DirectAccess:
        """A (possibly cached) :class:`DirectAccess` for the request.

        Args:
            query: a :class:`JoinQuery` or its textual form.
            order: the full variable order; ``None`` lets the advisor
                choose (cache-aware, see :meth:`plan`).
            prefix: with ``order=None``, a required order prefix — the
                advisor picks the cheapest completion (Definition 49).
            projected: variables to project away; must form a suffix of
                ``order`` (explicit orders only — the planner currently
                serves full join queries).
        """
        return self.access_versioned(
            query, order=order, prefix=prefix, projected=projected
        )[0]

    def access_versioned(
        self,
        query: JoinQuery | str,
        order=None,
        prefix=None,
        projected: frozenset[str] | set[str] = frozenset(),
        at_version: int | None = None,
    ) -> tuple[DirectAccess, int]:
        """:meth:`access` plus the database version it was served at.

        The ``(db_version, database)`` pair is snapshotted once at
        request start, so a delta applied mid-request cannot mix
        versions: the returned structure consistently reflects the
        snapshot, and the version lets callers (the facade's
        :class:`~repro.facade.AnswerView`) pin it for staleness
        detection.  ``at_version`` serves the request against a
        *retained MVCC snapshot* instead of the head — version-pinned
        wire reads ride this; it raises
        :class:`~repro.errors.StaleViewError` when the snapshot was
        evicted or the version is ahead of the head.

        A request resolved before at the served version is warm: one
        :meth:`lookup` in the request map returns the structure without
        parsing, planning or building.  Only a cold request runs the
        parser, the planner and the builds.
        """
        # Normalized once: order and prefix may be lazy iterables.
        if order is not None:
            order = tuple(order)
        if prefix is not None:
            prefix = tuple(prefix)
        projected = frozenset(projected)
        request = (query, order, prefix, projected)
        warm_version = (
            self._db_version if at_version is None else at_version
        )
        access = self.lookup(warm_version, request)
        if access is not None:
            return access, warm_version
        if isinstance(query, str):
            query = parse_query(query)
        decomposition: DisruptionFreeDecomposition | None = None
        if prefix is not None:
            prefix = _as_order(prefix)
        if order is not None:
            order = _as_order(order)
            wanted = list(prefix) if prefix is not None else []
            if wanted and list(order)[: len(wanted)] != wanted:
                raise OrderError(
                    f"order {list(order)} does not start with the "
                    f"requested prefix {wanted}"
                )
        elif projected:
            raise OrderError(
                "projected access needs an explicit order (the "
                "planner serves full join queries)"
            )
        with self._registry_lock:
            self.stats.requests += 1
        if at_version is None:
            version, database = self.current()
        else:
            version = at_version
            database = self.database_at(at_version)
        if order is None:
            report = self.plan(query, prefix, version)
            order = report.order
            decomposition = report.decomposition
        signature = query.signature()
        relations = frozenset(query.relation_symbols)
        access_key = (signature, tuple(order), projected)
        access = self.get("access", access_key, version=version)
        if access is not None:
            self.remember(version, request, access_key)
            return access, version
        if decomposition is None:
            decomposition = self._decomposition_for(
                signature, query, order, version
            )
        iota = decomposition.incompatibility_number
        access = self.get_or_build(
            "access",
            access_key,
            lambda: self._build(
                query, order, projected, decomposition, signature,
                database, version, relations,
            ),
            cost=iota,
            counted=True,  # the get() above recorded this miss
            version=version,
            relations=relations,
        )
        self.remember(version, request, access_key)
        return access, version

    def _build(
        self,
        query: JoinQuery,
        order: VariableOrder,
        projected: frozenset[str],
        decomposition: DisruptionFreeDecomposition,
        signature,
        database: Database,
        version: int,
        relations: frozenset[str],
    ) -> DirectAccess:
        preprocessing_key = self._preprocessing_key(
            signature, decomposition
        )
        forest_key = preprocessing_key + (projected,)
        iota = decomposition.incompatibility_number
        with use_engine(self.engine):

            def build_bags():
                preprocessing = Preprocessing(
                    query, order, database,
                    decomposition=decomposition,
                    patch_from=self.take_base(
                        "preprocessing", preprocessing_key, version
                    ),
                )
                with self._registry_lock:
                    self.stats.bag_materializations += (
                        preprocessing.materialized_bag_count
                    )
                    self.stats.bag_patches += (
                        preprocessing.patched_bag_count
                    )
                return preprocessing.bag_tables()

            bag_tables = self.get_or_build(
                "preprocessing",
                preprocessing_key,
                build_bags,
                cost=iota,
                version=version,
                relations=relations,
            )
            # With the tables in hand, re-assembling Preprocessing is a
            # pointer rewire — zero materializations, any order of the
            # shared decomposition.
            preprocessing = Preprocessing(
                query, order, database,
                decomposition=decomposition,
                bag_tables=bag_tables,
            )

            def build_forest():
                base = self.take_base("forest", forest_key, version)
                access = DirectAccess(
                    query, order, database, projected,
                    preprocessing=preprocessing,
                    base_forest=None if base is None else base[0],
                )
                with self._registry_lock:
                    self.stats.forest_builds += access.built_bag_count
                    self.stats.forest_patches += access.patched_bag_count
                return access.forest

            forest = self.get_or_build(
                "forest",
                forest_key,
                build_forest,
                cost=iota,
                version=version,
                relations=relations,
            )
            return DirectAccess(
                query, order, database, projected,
                preprocessing=preprocessing,
                forest=forest,
            )

    # -- mutations ---------------------------------------------------------

    def apply(self, delta) -> int:
        """Apply ``delta``, bump the version, invalidate selectively.

        The delta is validated, minimized against the live database
        (:meth:`~repro.data.delta.Delta.effective_against`), appended
        to the write-ahead log when one is attached (*before* any
        in-memory change — the durability contract), and then applied:
        the engine moves its database preparation forward by the delta
        (:meth:`~repro.engine.base.Engine.apply_delta` — the numpy
        engine extends the shared dictionary in place when
        order-preservation allows and splices the delta's rows into
        the mutated relations' sorted mirrors), and one pass over the
        caches re-keys every artifact whose declared relations are
        disjoint from the delta's touched set to the new version
        (``artifacts_carried``).
        The rest stop serving the head (``artifacts_invalidated``) and
        stay cached under the old version, which the MVCC snapshot
        plane retains together with this delta
        (``artifacts_retained``): reads pinned to the old version find
        them warm, and the next read at the head patches its bag tables
        and forest from them (:meth:`take_base`) — references only, no
        work.  Artifacts of every version the window evicts, the old
        one included, are garbage-collected (``artifacts_gcd``).
        Returns the new database version.

        An empty — or *effectively* empty, e.g. deleting absent rows —
        delta is a no-op: the current version comes back unbumped,
        nothing is logged or invalidated, and pinned views stay
        untouched (``noop_deltas`` counts it).  Raises
        :class:`~repro.errors.DatabaseError` for unknown relations or
        wrong-arity rows, before any state changes.
        """
        from repro.data.delta import Delta

        delta = Delta.coerce(delta)
        if delta.is_empty:
            return self.db_version
        self._drain_releases()
        with self._mutation_lock:
            database = self._database
            delta.validate_against(database)
            delta = delta.effective_against(database)
            if delta.is_empty:
                with self._registry_lock:
                    self.stats.noop_deltas += 1
                return self._db_version
            if self.wal is not None:
                # Append-before-apply: a crash from here on is repaired
                # by replay-on-boot, which re-applies this record.
                self.wal.append_delta(delta, self._db_version + 1)
            new_database, incremental, rows_encoded = (
                self.engine.apply_delta(database, delta)
            )
            touched = delta.touched
            with self._registry_lock:
                old = self._db_version
                new = old + 1
                self._database = new_database
                self._db_version = new
                self.stats.deltas_applied += 1
                if incremental:
                    self.stats.incremental_encodes += 1
                else:
                    self.stats.full_reencodes += 1
                self.stats.rows_encoded += rows_encoded
                evicted = set(
                    self.snapshots.record(new, new_database, delta)
                )
                for kind in self.KINDS:
                    cache = self._caches[kind]
                    for vkey in cache.keys():
                        version, key = vkey
                        if version != old:
                            continue
                        deps = self._deps.get((kind, vkey), DEPENDS_ON_ALL)
                        if deps is None or (
                            deps is not DEPENDS_ON_ALL
                            and not (deps & touched)
                        ):
                            if kind == "access":
                                self._requests.carry(vkey, new)
                            value, cost = self._drop(kind, vkey)
                            cache.put((new, key), value, cost=cost)
                            self._deps[(kind, (new, key))] = deps
                            self.stats.artifacts_carried += 1
                        else:
                            self.stats.artifacts_invalidated += 1
                            if old not in evicted:
                                self.stats.artifacts_retained += 1
                self._purge_versions(evicted)
            return new

    def take_base(self, kind: str, key, version: int):
        """The patch base for building ``(kind, key)`` at ``version``:
        ``(artifact, steps)`` with ``artifact`` the newest one cached
        under an older version and ``steps`` the ``(delta, database)``
        pairs the snapshot plane recorded from there to ``version``, or
        ``None`` (build from scratch).  The base stays cached: it is
        read, never consumed or written."""
        with self._registry_lock:
            cache = self._caches[kind]
            older = [v for v, k in cache.keys() if k == key and v < version]
            if not older:
                return None
            base = max(older)
            steps = [
                self.snapshots.step(v) for v in range(base + 1, version + 1)
            ]
            artifact = cache.peek((base, key))
        if any(step is None for step in steps):
            return None
        return artifact, steps

    # -- observability / lifecycle -----------------------------------------

    def cache(self, kind: str) -> CostAwareCache:
        """The underlying cache for ``kind`` (tests and introspection;
        not synchronized — take care off the serving path)."""
        return self._caches[kind]

    def cache_stats(self) -> dict:
        """A plain-dict snapshot of every counter (plus the MVCC
        plane's, and the WAL's when one is attached), taken in one
        critical section, so it is safe to read while other threads
        serve requests."""
        self._drain_releases()
        with self._registry_lock:
            out = self.stats.as_dict()
            out["db_version"] = self._db_version
            out["mvcc"] = self.snapshots.counters()
        if self.wal is not None:
            out["wal"] = self.wal.wal_stats()
        return out

    def clear(self) -> None:
        """Drop every cached artifact (counters and the encoded
        database are kept)."""
        with self._registry_lock:
            for cache in self._caches.values():
                cache.clear()
            self._deps.clear()
            self._requests.clear()
            # Held locks are kept, like the prune path: an in-flight
            # builder must stay the only builder for its key.
            self._build_locks = {
                key: lock
                for key, lock in self._build_locks.items()
                if lock.locked() or key[0] == "encode"
            }

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{kind}={len(self._caches[kind])}" for kind in self.KINDS
        )
        return (
            f"ArtifactStore({self.database!r}, "
            f"engine={self.engine.name!r}, {sizes})"
        )


__all__ = ["ArtifactStore", "DEPENDS_ON_ALL", "StoreStats"]
