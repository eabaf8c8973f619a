"""The shared read-only artifact store behind the sessions.

PR 3 made :class:`~repro.session.AccessSession` thread-safe with one
reentrant lock — correct, but it serializes *whole requests*: while one
thread pays an ``O(|D|^ι)`` preprocessing pass, every other thread
waits, even those asking for artifacts that already exist or for a
*different* decomposition.  For a serving process (``repro serve``)
that is the difference between N workers and one.

:class:`ArtifactStore` splits that lock three ways:

* a **registry lock** — held only for dictionary lookups, cache
  insertion, and stats updates (microseconds, never across tuple
  work);
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
version.

History does not vanish on apply: a
:class:`~repro.session.mvcc.SnapshotPlane` retains the last K
``(db_version, database)`` snapshots with per-version refcounts, so a
version-pinned view **keeps serving its snapshot** while new requests
see the head (:meth:`database_at` resolves any retained version, and
reads at it rebuild against the retained database when needed).
Head-invalidated artifacts are kept under their old version while that
version has open views (``artifacts_retained``) and garbage-collected
when its last view closes or the version leaves the window
(``artifacts_gcd``).  :class:`~repro.errors.StaleViewError` survives
only as the fallback for reads of an *evicted* snapshot.

Next to the ``access`` cache sits the **request map**
(:meth:`ArtifactStore.lookup` / :meth:`ArtifactStore.remember`): what a
read names — query text, order, prefix, projected set, exactly as sent
— at the version it is served at, mapped to the key of the
``DirectAccess`` it resolved to.  A warm read is one lookup: no parse,
no plan, no key derivation.  An entry lives exactly as long as its
artifact is resident at that version (eviction, ``apply``
invalidation, snapshot GC and :meth:`ArtifactStore.clear` drop it; a
carried artifact takes it along), and an artifact keeps one entry, so
the map needs no capacity of its own.

With a :class:`~repro.data.wal.WriteAheadLog` attached (``wal=``),
every effective delta is appended — checksummed and fsynced — *before*
the in-memory apply, so a crash between append and apply is repaired
by replay-on-boot, and ``repro serve --wal`` restarts warm and
current.  An *effectively empty* delta (every insert already present,
every delete already absent) is a no-op: no version bump, no log
record, no invalidation (``noop_deltas``).

One store fronts many cheap :class:`~repro.session.AccessSession`
objects — one per server worker — each keeping its own request/plan
counters while the artifact caches, and the once-per-database encoded
dictionary, are shared:

    >>> from repro.session.artifacts import ArtifactStore
    >>> store = ArtifactStore({"R": {(1, 2), (3, 2)}, "S": {(2, 7)}})
    >>> worker_a, worker_b = store.session(), store.session()
    >>> len(worker_a.access("Q(x, y, z) :- R(x, y), S(y, z)",
    ...                     order=["x", "y", "z"]))
    2
    >>> len(worker_b.access("Q(x, y, z) :- R(x, y), S(y, z)",
    ...                     order=["x", "z", "y"]))    # warm sibling?
    2
    >>> store.stats.database_encodes     # encoded once, not per worker
    1
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.data.database import Database
from repro.engine.base import Engine
from repro.engine.registry import resolve_engine
from repro.errors import StaleViewError
from repro.session.cache import CacheStats, CostAwareCache
from repro.session.mvcc import DEFAULT_RETAIN, SnapshotPlane

#: Sentinel for "dependencies unknown": artifacts registered without a
#: ``relations`` declaration are dropped by *every* delta — the safe
#: default for direct store users.  Pass a ``frozenset`` of relation
#: names for selective invalidation, or ``None`` for data-independent
#: artifacts that survive all deltas.
DEPENDS_ON_ALL = object()


@dataclass
class StoreStats:
    """Aggregate counters for one :class:`ArtifactStore`.

    The per-kind :class:`CacheStats` aggregate over *all* attached
    sessions (each session additionally keeps its own).  The build
    counters are the serving-layer acceptance evidence:

    * ``database_encodes`` — how many times the engine actually encoded
      the database; stays 1 no matter how many workers attach;
    * ``artifact_builds`` — builds that really ran (a worker that waited
      on another worker's in-flight build does not count);
    * ``build_waits`` — times a worker blocked on a per-artifact lock
      and then found the artifact warm (the de-duplication at work);
    * ``build_concurrency_peak`` — the high-water mark of builds running
      *simultaneously*; ``>= 2`` proves two artifacts were built under
      different locks, which a single session-wide lock can never show.

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
      version because that version still has open views (MVCC);
    * ``artifacts_gcd`` — old-version artifacts garbage-collected when
      their version's last view closed or the version left the
      snapshot window.
    """

    preprocessing: CacheStats = field(default_factory=CacheStats)
    forest: CacheStats = field(default_factory=CacheStats)
    access: CacheStats = field(default_factory=CacheStats)
    plans: CacheStats = field(default_factory=CacheStats)
    decompositions: CacheStats = field(default_factory=CacheStats)
    database_encodes: int = 0
    artifact_builds: int = 0
    build_waits: int = 0
    build_concurrency_peak: int = 0
    sessions: int = 0
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
            "database_encodes": self.database_encodes,
            "artifact_builds": self.artifact_builds,
            "build_waits": self.build_waits,
            "build_concurrency_peak": self.build_concurrency_peak,
            "sessions": self.sessions,
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


class ArtifactStore:
    """Shared, read-only-once-built artifacts for one database.

    Args:
        database: the served database (a :class:`Database` or a plain
            mapping of relation names to tuple iterables, converted).
        engine: execution engine (name, instance, or ``None`` for a
            fresh instance of the process-global active engine's kind);
            every attached session serves with this engine, so cached
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
    #: tables, ``forest`` counting forests, ``access`` assembled
    #: DirectAccess structures; ``plans`` and ``decompositions`` hold
    #: the (data-independent) planner products.
    KINDS = ("preprocessing", "forest", "access", "plans", "decompositions")
    #: Kinds a read at a newer version may patch instead of rebuilding,
    #: when the engine can (``Engine.patches_artifacts``).
    PATCHABLE = ("preprocessing", "forest")

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
        # Short-held: protects the cache maps, the build-lock registry,
        # and stats — never held across a build or an engine call.
        self._registry_lock = threading.Lock()
        # Serializes whole mutations (the engine's delta application
        # runs outside the registry lock; two racing deltas must not
        # interleave their encode work).
        self._mutation_lock = threading.Lock()
        self._build_locks: dict[tuple, threading.Lock] = {}
        # (kind, version, key) -> the relation names the artifact was
        # built from (``None`` = data-independent, always carried;
        # ``DEPENDS_ON_ALL`` = unknown, dropped by every delta).
        self._deps: dict[tuple, object] = {}
        self._building = 0
        # Builds nest (an access build runs the preprocessing and
        # forest builds inside it); concurrency is counted per
        # *thread*, not per nesting level, so the peak really means
        # "this many workers were building at the same instant".
        self._build_depth = threading.local()
        self._requests = _RequestMap()
        self._caches = {
            kind: CostAwareCache(
                capacity,
                self.stats.of(kind),
                on_evict=self._requests.forget if kind == "access" else None,
            )
            for kind in self.KINDS
        }
        # Patch bases: (kind, key) -> (version, artifact) for the
        # head's bag tables and forests a delta invalidated, and
        # version -> (effective delta, database) for every version a
        # base still needs to be stepped through (see take_base).
        self._bases: dict[tuple, tuple[int, object]] = {}
        self._steps: dict[int, tuple] = {}
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
        when the snapshot was evicted."""
        self._drain_releases()
        with self._registry_lock:
            if version == self._db_version:
                return self._database
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
                last = self.snapshots.release(version)
                if last and version != self._db_version:
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
        self._deps.pop((kind, vkey[0], vkey[1]), None)
        if kind == "access":
            self._requests.forget(vkey)
        return self._caches[kind].pop(vkey)

    # -- the request map ---------------------------------------------------

    def lookup(self, version: int, request, extra: CacheStats | None = None):
        """The ``access`` artifact ``request`` resolved to at
        ``version``, or ``None`` when that key is cold.

        ``request`` is what a read names — (query, order, prefix,
        projected) as given — so a warm read skips parsing, planning
        and key derivation.  A hit counts as an ``access`` hit (store
        aggregate and ``extra``); a miss counts nothing, because the
        caller's cold path does its own counted lookup.
        """
        self._drain_releases()
        with self._registry_lock:
            key = self._requests.get(version, request)
            if key is None:
                return None
            return self._caches["access"].get((version, key), extra)

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

    # -- sessions ----------------------------------------------------------

    def session(self):
        """A cheap :class:`~repro.session.AccessSession` attached to
        this store (own counters, shared artifacts)."""
        from repro.session.session import AccessSession

        return AccessSession(self)

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

    #: Dependency-registry prune threshold (mirrors the build-lock
    #: registry): entries for evicted artifacts are dropped lazily.
    DEPS_REGISTRY_LIMIT = 4096

    def _record_deps(self, kind: str, version: int, key, relations) -> None:
        # Registry lock held by the caller.
        self._deps[(kind, version, key)] = relations
        if len(self._deps) > self.DEPS_REGISTRY_LIMIT:
            live = {
                (kind_, vkey[0], vkey[1])
                for kind_ in self.KINDS
                for vkey in self._caches[kind_].keys()
            }
            self._deps = {
                dep: value
                for dep, value in self._deps.items()
                if dep in live
            }

    def get(
        self,
        kind: str,
        key,
        extra: CacheStats | None = None,
        version: int | None = None,
    ):
        """Cached artifact or ``None``; counts a hit/miss in the store
        aggregate and in the caller's ``extra`` stats.  ``version``
        defaults to the current database version."""
        with self._registry_lock:
            if version is None:
                version = self._db_version
            return self._caches[kind].get((version, key), extra)

    def put(
        self, kind: str, key, value, cost=0,
        extra: CacheStats | None = None,
        version: int | None = None,
        relations=DEPENDS_ON_ALL,
    ) -> None:
        """Register an artifact under the given (or current) version.

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
            self._caches[kind].put(
                (version, key), value, cost=cost, extra=extra
            )
            self._record_deps(kind, version, key, relations)

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
        extra: CacheStats | None = None,
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
                value = self._caches[kind].get(vkey, extra)
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
                    self._caches[kind].put(
                        vkey, value, cost=cost, extra=extra
                    )
                    self._record_deps(kind, version, key, relations)
                return value

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
        The rest stop serving the head (``artifacts_invalidated``):
        they are kept under the old version while that version has
        open views (``artifacts_retained``), dropped otherwise.  The
        old database itself is retained in the MVCC snapshot plane.
        When the engine can patch, the invalidated bag tables and
        forests are also kept as patch bases, next to the delta, for
        the next read to consume (:meth:`take_base`) — references
        only, no work.  Returns the new database version.

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
                keep_old = self.snapshots.refs(old) > 0
                evicted = set(self.snapshots.record(new, new_database))
                patchable = (
                    self.PATCHABLE if self.engine.patches_artifacts else ()
                )
                for kind in self.KINDS:
                    cache = self._caches[kind]
                    for vkey in cache.keys():
                        version, key = vkey
                        if version != old:
                            # An older retained version's artifact:
                            # keep serving its pinned views, unless
                            # the window just evicted the version.
                            if version in evicted:
                                self._drop(kind, vkey)
                                self.stats.artifacts_gcd += 1
                            continue
                        deps = self._deps.get(
                            (kind, version, key), DEPENDS_ON_ALL
                        )
                        survives = deps is None or (
                            deps is not DEPENDS_ON_ALL
                            and not (deps & touched)
                        )
                        if not survives and kind in patchable:
                            self._bases[(kind, key)] = (
                                old, cache.peek(vkey),
                            )
                        if survives:
                            if kind == "access":
                                self._requests.carry(vkey, new)
                            value, cost = self._drop(kind, vkey)
                            cache.put((new, key), value, cost=cost)
                            self._deps[(kind, new, key)] = deps
                            self.stats.artifacts_carried += 1
                        elif keep_old:
                            # Invalidated at the head but the old
                            # version has open views: retain it for
                            # them, GC'd when the last view closes.
                            self.stats.artifacts_invalidated += 1
                            self.stats.artifacts_retained += 1
                        else:
                            self._drop(kind, vkey)
                            self.stats.artifacts_invalidated += 1
                if patchable:
                    self._steps[new] = (delta, new_database)
                self._prune_bases()
            return new

    def _prune_bases(self) -> None:
        # Registry lock held by the caller.  A base lives while its
        # version is inside the snapshot window; the steps live while
        # some base still needs them.
        horizon = self._db_version - self.snapshots.retain
        self._bases = {
            slot: base
            for slot, base in self._bases.items()
            if base[0] > horizon
        }
        floor = min(
            (version for version, _ in self._bases.values()),
            default=self._db_version,
        )
        self._steps = {
            version: step
            for version, step in self._steps.items()
            if version > floor
        }

    def take_base(self, kind: str, key, version: int):
        """Consume the patch base for ``(kind, key)``: ``(artifact,
        steps)`` with ``steps`` the ``(delta, database)`` pairs leading
        from the base's version to ``version``, or ``None`` (build from
        scratch).  A base is taken at most once, so at most one
        generation of old artifacts is kept for patching."""
        with self._registry_lock:
            base = self._bases.get((kind, key))
            if base is None or base[0] >= version:
                return None
            del self._bases[(kind, key)]
            steps = [
                self._steps.get(v) for v in range(base[0] + 1, version + 1)
            ]
            self._prune_bases()
        if any(step is None for step in steps):
            return None
        return base[1], steps

    # -- observability / lifecycle -----------------------------------------

    def cache(self, kind: str) -> CostAwareCache:
        """The underlying cache for ``kind`` (tests and introspection;
        not synchronized — take care off the serving path)."""
        return self._caches[kind]

    def cache_stats(self) -> dict:
        """A plain-dict snapshot of the store-level counters (plus the
        MVCC plane's, and the WAL's when one is attached)."""
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
            self._bases.clear()
            self._steps.clear()
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
