"""Process-serving backends behind :class:`~repro.server.http.ReproServer`.

Two backends, one contract (``execute`` / ``stats`` / ``ping`` /
``close``), both replacing the in-process ``Connection`` pool with the
worker-pool supervisor (:mod:`repro.server.pool`) over the
shared-memory artifact plane (:mod:`repro.server.shm`):

* :class:`ProcessBackend` (``procs=N``) — N identical workers, each
  attached zero-copy to the one published database.  Requests are
  routed with *session affinity* (same ``(query, order)`` hashes to
  the same worker, keeping its private artifact cache hot); mutations
  run on the primary's authoritative store first, republish the
  database, then broadcast the delta so every worker's PR-5 carry /
  invalidate logic runs in its own process.

* :class:`ShardBackend` (``shards=N``) — N workers each holding a
  *different* range-shard of the partitioned relation
  (:mod:`repro.session.sharding`); reads fan out per shard and merge
  by prefix counts, bit-identical to unsharded serving.  Sharded
  serving is read-only by construction.

A third backend, :class:`RemoteShardBackend` (``shard_backends=
[url, ...]``), keeps the same contract but owns no processes at all:
each shard lives on a *remote* ``repro serve`` replica, reached
through the keep-alive pooled HTTP client
(:class:`~repro.server.client.HTTPShardExecutor`) and merged by the
identical prefix-count math — the single-host/multi-host distinction
collapses into which executor the :class:`ShardedExecutor` is given.

The wire protocol is unchanged in all modes: workers produce the
exact response JSON the threaded server would, and the HTTP layer
forwards it byte-for-byte.
"""

from __future__ import annotations

import json
import threading

from repro.data.database import EncodedDatabase
from repro.data.flatbuf import database_to_buffers
from repro.errors import OverloadedError, ProtocolError, ReproError
from repro.server.pool import DEFAULT_QUEUE_DEPTH, WorkerPool
from repro.server.shm import SharedArtifactPlane
from repro.server.worker import WorkerSpec
from repro.session.protocol import (
    MUTATION_OPS,
    SessionRequest,
    SessionResponse,
    delta_from_request,
    mutation_result,
)
from repro.session.sharding import (
    ShardedExecutor,
    plan_shards,
    shard_databases,
)


def _encoded(database) -> EncodedDatabase:
    if isinstance(database, EncodedDatabase):
        return database
    return EncodedDatabase(database.relations)


def _error_response(request: SessionRequest, error) -> SessionResponse:
    return SessionResponse(
        op=request.op,
        ok=False,
        error=str(error),
        error_type=type(error).__name__,
    )


def _advised_shard_variable(
    database, query_text: str, engine_name: str
) -> str:
    """The advisor's preferred order for the bound query leads with
    the variable most orders will lead with — shard on it."""
    from repro.facade import connect

    advisor = connect(database.relations, engine=engine_name, cache=0)
    return advisor.plan(query_text).order[0]


class ProcessBackend:
    """N identical worker processes over one published database."""

    mode = "procs"

    def __init__(
        self,
        store,
        procs: int,
        engine_name: str,
        capacity: int | None,
        cache_slack,
        default_query_text: str | None,
        start_method: str = "spawn",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        read_only: bool = False,
        chaos: str | None = None,
    ):
        self.store = store
        self._capacity = capacity
        self._cache_slack = cache_slack
        self._default_query_text = default_query_text
        self._engine_name = engine_name
        self._read_only = bool(read_only)
        self._chaos = chaos
        self.plane = SharedArtifactPlane()
        self._mutation_lock = threading.Lock()
        self._current = self._publish(store.database, store.db_version)
        try:
            self.pool = WorkerPool(
                procs,
                self._spec_factory,
                plane=self.plane,
                start_method=start_method,
                max_queue_depth=queue_depth,
            )
        except BaseException:
            # A fleet that never booted (e.g. every worker failed to
            # attach the plane) must not leak its /dev/shm segments.
            self.plane.close()
            raise

    def _publish(self, database, version: int):
        """``(publication, fallback, version)`` for the current
        database — ``fallback`` carries the pickled database when the
        flat-buffer layout cannot (the plane is an optimization, never
        a gate on serving)."""
        flat = database_to_buffers(database)
        if flat is None:
            return (None, database, version)
        manifest, buffers = flat
        publication = self.plane.publish(
            f"db:{version}", manifest, buffers
        )
        return (publication, None, version)

    def _spec_factory(self, name: str, index: int) -> WorkerSpec:
        publication, fallback, version = self._current
        return WorkerSpec(
            name=name,
            plane_prefix=self.plane.prefix,
            engine=self._engine_name,
            db_version=version,
            database=publication,
            fallback_database=fallback,
            capacity=self._capacity,
            cache_slack=self._cache_slack,
            default_query=self._default_query_text,
            # Workers mirror the supervisor's MVCC policy so pinned
            # reads behave identically wherever they land; the WAL
            # stays supervisor-only (one log, one appender).
            retain_versions=self.store.snapshots.retain,
            chaos=self._chaos,
        )

    # -- serving -----------------------------------------------------------

    def execute(self, request: SessionRequest) -> SessionResponse:
        if request.op in MUTATION_OPS:
            return self._mutate(request)
        try:
            # Each worker process caches artifacts privately, so the
            # same (query, order) prefers the same worker; a read-only
            # fleet never invalidates, so locality is cheap to rebuild
            # and dispatch may spill to the shallowest queue instead.
            affinity = hash((request.query, request.order))
            raw = self.pool.execute_json(
                request.to_json(), affinity, spill=self._read_only
            )
            return SessionResponse.from_json(raw)
        except OverloadedError:
            # Admission failures must reach the transport as 503, not
            # collapse into a 200 error body like library errors.
            raise
        except ReproError as error:
            return _error_response(request, error)

    def _mutate(self, request: SessionRequest) -> SessionResponse:
        try:
            # The shared request→Delta path (insert / delete / atomic
            # multi-relation apply): the supervisor's authoritative
            # store validates and applies — and, when serving with a
            # WAL, logs the record before the engine touches anything.
            delta = delta_from_request(request)
            with self._mutation_lock:
                old_publication, _fallback, old_version = self._current
                new_version = self.store.apply(delta)
                if new_version != old_version:
                    # Republish first, then broadcast: a worker that
                    # crashes mid-delta respawns from the *new*
                    # publication, so the fleet always converges on
                    # the primary's version.  An effectively-empty
                    # delta never reaches this branch — no version
                    # bump, nothing to publish.
                    self._current = self._publish(
                        self.store.database, new_version
                    )
                    if old_publication is not None:
                        self.plane.retire(old_publication.token)
                    self.pool.broadcast_delta(delta)
            return SessionResponse(
                op=request.op,
                ok=True,
                result=mutation_result(request, delta, new_version),
            )
        except (ReproError, ValueError) as error:
            return _error_response(request, error)

    # -- observability / lifecycle -----------------------------------------

    def stats(self) -> dict:
        return {
            "pool": self.pool.counters(),
            "plane": self.plane.counters.as_dict(),
            "per_worker": self.pool.stats(),
        }

    def ping(self) -> int:
        return self.pool.ping()

    def close(self, timeout: float = 10.0) -> bool:
        clean = self.pool.close(timeout=timeout)
        self.plane.close()
        return clean


class ShardBackend:
    """One worker per range-shard; reads merge by prefix counts."""

    mode = "sharded"

    def __init__(
        self,
        database,
        shards: int,
        engine_name: str,
        capacity: int | None,
        cache_slack,
        default_query,
        shard_relation: str | None = None,
        shard_variable: str | None = None,
        start_method: str = "spawn",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        chaos: str | None = None,
    ):
        if default_query is None:
            raise ProtocolError(
                "sharded serving needs a default query: the shard "
                "plan fixes the partitioned relation at startup"
            )
        query_text = str(default_query)
        if shard_variable is None:
            shard_variable = _advised_shard_variable(
                database, query_text, engine_name
            )
        self.plan = plan_shards(
            database,
            default_query,
            shards,
            variable=shard_variable,
            relation=shard_relation,
        )
        self.plane = SharedArtifactPlane()
        self._specs: list[WorkerSpec] = []
        for index, mapping in enumerate(
            shard_databases(database, self.plan)
        ):
            encoded = EncodedDatabase(mapping)
            flat = database_to_buffers(encoded)
            publication, fallback = None, None
            if flat is None:
                fallback = encoded
            else:
                manifest, buffers = flat
                publication = self.plane.publish(
                    f"shard:{index}:db:0", manifest, buffers
                )
            self._specs.append(
                WorkerSpec(
                    name="",  # filled per spawn
                    plane_prefix=self.plane.prefix,
                    engine=engine_name,
                    db_version=0,
                    database=publication,
                    fallback_database=fallback,
                    capacity=capacity,
                    cache_slack=cache_slack,
                    default_query=query_text,
                    shard_index=index,
                    chaos=chaos,
                )
            )
        try:
            self.pool = WorkerPool(
                self.plan.shards,
                self._spec_factory,
                plane=self.plane,
                start_method=start_method,
                max_queue_depth=queue_depth,
            )
        except BaseException:
            self.plane.close()
            raise
        self._executor = ShardedExecutor(
            self.plan, self._execute_shard, default_query=query_text
        )

    def _spec_factory(self, name: str, index: int) -> WorkerSpec:
        spec = self._specs[index]
        return WorkerSpec(
            **{
                **{
                    f: getattr(spec, f)
                    for f in spec.__dataclass_fields__
                },
                "name": name,
            }
        )

    def _execute_shard(
        self, index: int, request: SessionRequest
    ) -> dict:
        return json.loads(
            self.pool.execute_on(index, request.to_json())
        )

    # -- serving -----------------------------------------------------------

    def execute(self, request: SessionRequest) -> SessionResponse:
        try:
            return SessionResponse.from_dict(
                self._executor.execute(request)
            )
        except ReproError as error:
            return _error_response(request, error)

    # -- observability / lifecycle -----------------------------------------

    def stats(self) -> dict:
        return {
            "pool": self.pool.counters(),
            "plane": self.plane.counters.as_dict(),
            "shard_plan": self.plan.describe(),
            "per_worker": self.pool.stats(),
        }

    def ping(self) -> int:
        return self.pool.ping()

    def close(self, timeout: float = 10.0) -> bool:
        clean = self.pool.close(timeout=timeout)
        self.plane.close()
        return clean


class RemoteShardBackend:
    """One *remote* ``repro serve`` replica per range-shard.

    The same shard plan and prefix-count merge as
    :class:`ShardBackend`, but the executor fans out over HTTP
    (:class:`~repro.server.client.HTTPShardExecutor`) instead of
    worker-process pipes — replica ``i`` must serve exactly the
    database that ``shard_databases(database, plan)[i]`` describes
    (the differential suite proves the two transports bit-identical).
    Owns no processes and no shared memory; read-only by construction,
    like all sharded serving.
    """

    mode = "sharded-remote"

    def __init__(
        self,
        database,
        urls,
        engine_name: str,
        default_query,
        shard_relation: str | None = None,
        shard_variable: str | None = None,
        timeout: float = 30.0,
    ):
        if default_query is None:
            raise ProtocolError(
                "sharded serving needs a default query: the shard "
                "plan fixes the partitioned relation at startup"
            )
        urls = list(urls)
        if not urls:
            raise ProtocolError(
                "remote sharded serving needs at least one replica URL"
            )
        query_text = str(default_query)
        if shard_variable is None:
            shard_variable = _advised_shard_variable(
                database, query_text, engine_name
            )
        self.plan = plan_shards(
            database,
            default_query,
            len(urls),
            variable=shard_variable,
            relation=shard_relation,
        )
        from repro.server.client import HTTPShardExecutor

        self.transport = HTTPShardExecutor(urls, timeout=timeout)
        self._executor = ShardedExecutor(
            self.plan, self.transport, default_query=query_text
        )

    # -- serving -----------------------------------------------------------

    def execute(self, request: SessionRequest) -> SessionResponse:
        try:
            return SessionResponse.from_dict(
                self._executor.execute(request)
            )
        except ReproError as error:
            return _error_response(request, error)

    # -- observability / lifecycle -----------------------------------------

    def stats(self) -> dict:
        return {
            "shard_plan": self.plan.describe(),
            "replicas": list(self.transport.replicas),
            # No local worker sessions: the replicas keep their own
            # /stats.  The empty list keeps the front's aggregation
            # shape identical across backends.
            "per_worker": [],
        }

    def ping(self) -> int:
        return len(self.transport.replicas)

    def close(self, timeout: float = 10.0) -> bool:
        self.transport.close()
        return True


__all__ = ["ProcessBackend", "RemoteShardBackend", "ShardBackend"]
