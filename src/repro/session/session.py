"""The serving layer: one database, many direct-access requests.

Theorem 44 makes preprocessing cost an exact function of the query and
the variable order, which means a long-lived service can *plan*: many
orders induce the same disruption-free decomposition and can share one
``O(|D|^ι)`` preprocessing pass, and every query over one database can
share one dictionary encoding.  :class:`AccessSession` is that service
core:

* its :class:`~repro.session.artifacts.ArtifactStore` pins an
  execution engine and lets it pre-encode the database (shared-domain
  dictionary under numpy, warm sorted caches under Python);
* each :meth:`access` request reuses, in order of coarseness, the exact
  :class:`~repro.core.access.DirectAccess` structure, the counting
  forest, or the materialized bag relations of any earlier request
  whose decomposition matches — verified per request by the cache-stats
  counters;
* when no order is given, the request is planned through
  :mod:`repro.core.advisor`, *cache-aware*: among orders tied at the
  optimal exponent, one whose decomposition is already cached wins.

Concurrency model: the artifacts live in a shared
:class:`~repro.session.artifacts.ArtifactStore`, and the session itself
is a *cheap front* — its counters plus planning.  Cache lookups take
the store's short registry lock; cold builds take a **per-artifact**
build lock, so two threads preprocessing *different* decompositions
proceed concurrently while two threads racing for the *same* artifact
do the work exactly once.  The served
structures are immutable after construction, so concurrent reads of a
returned :class:`DirectAccess` need no coordination, and one session
may serve many threads (``repro serve`` runs one).  Sessions come from
:meth:`ArtifactStore.session`.

This module is the engine room behind the public facade
(:func:`repro.connect` / :class:`repro.Connection`): prefer the facade
in application code.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.core.access import DirectAccess
from repro.core.advisor import (
    OrderReport,
    rank_orders,
    rank_orders_with_prefix,
)
from repro.core.decomposition import DisruptionFreeDecomposition
from repro.core.preprocessing import Preprocessing
from repro.data.database import Database
from repro.engine.registry import use_engine
from repro.errors import OrderError
from repro.query.parser import parse_query
from repro.query.query import JoinQuery
from repro.query.variable_order import VariableOrder
from repro.session.artifacts import ArtifactStore
from repro.session.cache import SessionStats


def _as_order(order) -> VariableOrder:
    if isinstance(order, VariableOrder):
        return order
    return VariableOrder(list(order))


class AccessSession:
    """Amortized direct access for repeated requests over one database.

    Args:
        store: the :class:`~repro.session.artifacts.ArtifactStore`
            this session fronts — it owns the database, the pinned
            engine, the caches and the MVCC snapshot window, and may be
            shared by several sessions.
    """

    #: Cache-aware planning inspects at most this many tied-optimal
    #: candidates per plan; beyond it (symmetric queries tie
    #: factorial-many orders) extra candidates add LP solves and memory
    #: but no real planning signal.
    PLAN_WINDOW = 16

    def __init__(self, store: ArtifactStore):
        self.store = store
        self.engine = store.engine
        self.stats = SessionStats()
        # A leaf lock for this session's own counters and snapshots —
        # held for increments only, never while calling into the store
        # (whose build locks may in turn briefly take this lock from
        # another thread).
        self._lock = threading.RLock()
        with store._registry_lock:
            store.stats.sessions += 1

    @property
    def database(self) -> Database:
        """The currently served database (the store's newest version)."""
        return self.store.database

    @property
    def db_version(self) -> int:
        """The store's database version (bumped by :meth:`apply`)."""
        return self.store.db_version

    # -- mutations ---------------------------------------------------------

    def apply(self, delta) -> int:
        """Apply a :class:`~repro.data.delta.Delta` to the served
        database and return the new version.

        The store maintains the shared encoding incrementally when
        order-preservation allows and invalidates exactly the cached
        artifacts whose decomposition touches a mutated relation;
        everything else keeps serving warm (see
        :meth:`~repro.session.artifacts.ArtifactStore.apply`).  Shared
        stores propagate the new version to every attached worker.
        """
        return self.store.apply(delta)

    # -- planning ----------------------------------------------------------

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
            with self._lock:
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
        return self.store.get_or_build(
            "plans", key, build_plan, extra=self.stats.plans,
            version=version, relations=None,
        )

    def _decomposition_for(
        self,
        signature,
        query: JoinQuery,
        order: VariableOrder,
        version: int | None = None,
    ) -> DisruptionFreeDecomposition:
        key = (signature, tuple(order))
        return self.store.get_or_build(
            "decompositions",
            key,
            lambda: DisruptionFreeDecomposition(query, order),
            extra=self.stats.decompositions,
            version=version,
            relations=None,
        )

    def plan(
        self,
        query: JoinQuery,
        prefix: VariableOrder | None = None,
        version: int | None = None,
    ) -> OrderReport:
        """The order the session would serve ``query`` with.

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
            if self.store.contains(
                "preprocessing", key, version=version
            ):
                if report is not best:
                    with self._lock:
                        self.stats.cache_preferred_orders += 1
                return report
        return best

    # -- cache keys --------------------------------------------------------

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
        evicted.

        A request the store has resolved before at the served version
        is warm: one lookup in the store's request map (see
        :meth:`~repro.session.artifacts.ArtifactStore.lookup`) returns
        the structure without parsing, planning or building.  Only a
        cold request runs the parser, the planner and the builds.
        """
        # Normalized once: order and prefix may be lazy iterables.
        if order is not None:
            order = tuple(order)
        if prefix is not None:
            prefix = tuple(prefix)
        projected = frozenset(projected)
        request = (query, order, prefix, projected)
        warm_version = (
            self.store.db_version if at_version is None else at_version
        )
        access = self.store.lookup(
            warm_version, request, self.stats.access
        )
        if access is not None:
            with self._lock:
                self.stats.requests += 1
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
        with self._lock:
            self.stats.requests += 1
        if at_version is None:
            version, database = self.store.current()
        else:
            version = at_version
            database = self.store.database_at(at_version)
        if order is None:
            report = self.plan(query, prefix, version)
            order = report.order
            decomposition = report.decomposition
        signature = query.signature()
        relations = frozenset(query.relation_symbols)
        access_key = (signature, tuple(order), projected)
        access = self.store.get(
            "access", access_key, extra=self.stats.access,
            version=version,
        )
        if access is not None:
            self.store.remember(version, request, access_key)
            return access, version
        if decomposition is None:
            decomposition = self._decomposition_for(
                signature, query, order, version
            )
        iota = decomposition.incompatibility_number
        access = self.store.get_or_build(
            "access",
            access_key,
            lambda: self._build(
                query, order, projected, decomposition, signature,
                database, version, relations,
            ),
            cost=iota,
            extra=self.stats.access,
            counted=True,  # the get() above recorded this miss
            version=version,
            relations=relations,
        )
        self.store.remember(version, request, access_key)
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
                    patch_from=self.store.take_base(
                        "preprocessing", preprocessing_key, version
                    ),
                )
                with self._lock:
                    self.stats.bag_materializations += (
                        preprocessing.materialized_bag_count
                    )
                    self.stats.bag_patches += (
                        preprocessing.patched_bag_count
                    )
                return preprocessing.bag_tables()

            bag_tables = self.store.get_or_build(
                "preprocessing",
                preprocessing_key,
                build_bags,
                cost=iota,
                extra=self.stats.preprocessing,
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
                base = self.store.take_base("forest", forest_key, version)
                access = DirectAccess(
                    query, order, database, projected,
                    preprocessing=preprocessing,
                    base_forest=None if base is None else base[0],
                )
                with self._lock:
                    self.stats.forest_builds += access.built_bag_count
                    self.stats.forest_patches += access.patched_bag_count
                return access.forest

            forest = self.store.get_or_build(
                "forest",
                forest_key,
                build_forest,
                cost=iota,
                extra=self.stats.forest,
                version=version,
                relations=relations,
            )
            return DirectAccess(
                query, order, database, projected,
                preprocessing=preprocessing,
                forest=forest,
            )

    # -- observability -----------------------------------------------------

    def cache_stats(self) -> dict:
        """A snapshot of this session's cache and work counters (plain
        dicts, safe to read while other threads serve requests), plus
        the shared store's build counters under ``"store"``."""
        with self._lock:
            out = self.stats.as_dict()
        out["store"] = self.store.cache_stats()
        return out


__all__ = ["AccessSession"]
