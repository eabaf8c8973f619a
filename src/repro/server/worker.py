"""The serving worker process: attach, serve, apply, drain.

Each worker is one OS process spawned by the
:class:`~repro.server.pool.WorkerPool`.  It attaches the published
database zero-copy (:mod:`repro.server.shm` /
:mod:`repro.data.flatbuf`), builds a private
:class:`~repro.session.ArtifactStore` + facade ``Connection`` over it,
and then serves a tagged-message loop on its control pipe:

* ``("request", json)`` — one protocol request; the reply is the
  response JSON (the exact bytes the HTTP layer writes, so threaded
  and process serving are wire-identical);
* ``("delta", Delta)`` — apply a mutation to the local store (PR 5's
  incremental dictionary/carry semantics run per process); replies
  with the new db_version;
* ``("stats",)`` / ``("ping",)`` / ``("drain",)`` — observability,
  health checks, graceful exit.

While handling a request the worker may interleave plane traffic
upstream — ``("plane_lookup", token)`` to attach a sibling's counting
forest instead of rebuilding it, ``("plane_publish", publication)``
after building one first — and the supervisor answers with
``("plane", ...)`` before the final ``("ok", ...)`` closes the
interaction.  One interaction is in flight per worker at a time (the
pool holds a per-worker slot), so the conversation never interleaves
two requests.

The worker never unlinks shared memory: segment lifetime is the
supervisor's (:class:`~repro.server.shm.SharedArtifactPlane`), and a
crashed worker's references are dropped by the supervisor's crash
detection, not by anything in this module.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field

from repro.chaos.faults import ChaosCrash
from repro.chaos.faults import fire as _chaos_fire

from repro.data.flatbuf import (
    database_from_buffers,
    forest_from_buffers,
    forest_to_buffers,
)
from repro.server.shm import (
    AttachedSegments,
    Publication,
    publish_from_worker,
    stable_token,
    unlink_publication,
)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to boot (picklable, spawn-safe).

    Exactly one of ``database`` (a plane publication to attach) and
    ``fallback_database`` (the pickled database itself, for engines or
    domains the flat-buffer layout cannot carry) is set.
    """

    name: str
    plane_prefix: str
    engine: str
    db_version: int = 0
    database: Publication | None = None
    fallback_database: object = None
    capacity: int | None = 64
    cache_slack: float = 0
    default_query: str | None = None
    shard_index: int | None = None
    #: MVCC policy mirrored from the supervisor's store, so pinned
    #: reads behave the same on whichever worker they land.  Workers
    #: never carry a WAL — the supervisor's store is the one appender.
    retain_versions: int | None = None
    #: A chaos spec (:mod:`repro.chaos.faults` grammar) armed at boot,
    #: so injected worker processes inherit the supervisor's plan even
    #: when ``REPRO_CHAOS`` is not in the environment.
    chaos: str | None = None


@dataclass
class PlaneClient:
    """The worker-side front of the shared artifact plane.

    Installed as ``ArtifactStore.plane``: cold forest builds first ask
    the supervisor for a sibling's publication (zero-copy attach), and
    locally built forests are published back for the siblings.  Only
    the ``forest`` kind rides the plane — bag tables and assembled
    ``DirectAccess`` structures hold Python closures, and plans are
    cheap.  Every path degrades silently to a local build: the plane
    is an optimization, never a correctness dependency.
    """

    pipe: object
    prefix: str
    #: Token namespace.  Empty for identical workers (they share one
    #: database, so equal keys mean equal forests); ``"s<k>:"`` for
    #: shard ``k`` — shard workers hold *different* databases, and an
    #: unscoped token would hand shard ``k`` a sibling shard's forest.
    scope: str = ""
    store: object = None
    attachments: list = field(default_factory=list)
    fetches: int = 0
    fetch_misses: int = 0
    publishes: int = 0

    def _roundtrip(self, message):
        self.pipe.send(message)
        reply = self.pipe.recv()
        if not (isinstance(reply, tuple) and reply[0] == "plane"):
            raise RuntimeError(f"unexpected plane reply: {reply!r}")  # repro: noqa[EXC-TAXONOMY] -- IPC framing corruption; fetch/offer fall back to a local build
        return reply[1]

    def fetch(self, kind: str, key, version: int):
        if kind != "forest" or self.store is None:
            return None
        try:
            token = f"forest:{self.scope}{version}:{stable_token(key)}"
            publication = self._roundtrip(("plane_lookup", token))
            if publication is None:
                self.fetch_misses += 1
                return None
            attached = AttachedSegments(publication)
            # Rebuild against the database *at the requested version*,
            # not the head: a pinned read fetching a retained-version
            # forest from the plane must bind it to the matching MVCC
            # snapshot (database_at raises StaleViewError when the
            # snapshot is gone, which the broad except below turns
            # into an honest miss).
            forest = forest_from_buffers(
                publication.manifest,
                attached.views,
                self.store.database_at(version),
            )
            # The SharedMemory handles must outlive the forest's numpy
            # views; the store may evict the forest but the attachment
            # stays mapped until process exit (segment *lifetime* is
            # supervisor-side refcounting, not worker GC).
            self.attachments.append(attached)
            self.fetches += 1
            return forest
        except ChaosCrash:
            raise
        except Exception:
            if os.environ.get("REPRO_PLANE_DEBUG"):
                traceback.print_exc()
            return None

    def offer(self, kind: str, key, version: int, value) -> None:
        if kind != "forest" or self.store is None:
            return
        try:
            database = self.store.database_at(version)
            shared = getattr(database, "shared_dictionary", None)
            flat = forest_to_buffers(value, shared)
            if flat is None:
                return
            manifest, buffers = flat
            token = f"forest:{self.scope}{version}:{stable_token(key)}"
            publication = publish_from_worker(
                self.prefix, token, manifest, buffers
            )
            if self._roundtrip(("plane_publish", publication)):
                self.publishes += 1
            else:
                unlink_publication(publication)
        except ChaosCrash:
            raise
        except Exception:
            if os.environ.get("REPRO_PLANE_DEBUG"):
                traceback.print_exc()

    def counters(self) -> dict:
        return {
            "forest_fetches": self.fetches,
            "forest_fetch_misses": self.fetch_misses,
            "forest_publishes": self.publishes,
            "attachments": len(self.attachments),
        }


def _boot(spec: WorkerSpec, pipe):
    """Attach the database and assemble the serving stack."""
    from repro.facade import Connection
    from repro.session.artifacts import ArtifactStore

    attachments = []
    if spec.database is not None:
        attached = AttachedSegments(spec.database)
        attachments.append(attached)
        database = database_from_buffers(
            spec.database.manifest, attached.views
        )
    else:
        database = spec.fallback_database
    store = ArtifactStore(
        database,
        engine=spec.engine,
        capacity=spec.capacity,
        db_version=spec.db_version,
        retain_versions=spec.retain_versions,
    )
    plane = PlaneClient(
        pipe=pipe,
        prefix=spec.plane_prefix,
        scope=(
            f"s{spec.shard_index}:"
            if spec.shard_index is not None
            else ""
        ),
    )
    plane.store = store
    plane.attachments.extend(attachments)
    store.plane = plane
    return store, plane, Connection(store.session(spec.cache_slack))


def worker_main(spec: WorkerSpec, pipe) -> None:
    """Process entry point (must stay importable for spawn)."""
    # The supervisor coordinates shutdown over the pipe; a terminal's
    # Ctrl-C — and a SIGTERM from timeout(1)/systemd, which signal the
    # whole process group — must not kill workers before the primary
    # drains them.  If the primary dies without draining, the control
    # pipe's EOF ends the loop below anyway.
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
    if spec.chaos:
        from repro.chaos import faults

        faults.arm(spec.chaos)
    try:
        store, plane, connection = _boot(spec, pipe)
    except BaseException as error:  # noqa: BLE001 - report, then die
        try:
            pipe.send(("err", f"worker boot failed: {error!r}"))
        finally:
            pipe.close()
        return
    from repro.query.parser import parse_query
    from repro.session.protocol import SessionRequest, execute

    default_query = (
        parse_query(spec.default_query)
        if spec.default_query is not None
        else None
    )
    pipe.send(("ready", store.db_version))
    try:
        while True:
            try:
                message = pipe.recv()
            except (EOFError, OSError):
                break
            tag = message[0]
            try:
                if tag == "request":
                    request = SessionRequest.from_json(message[1])
                    response = execute(
                        connection, request, default_query=default_query
                    )
                    pipe.send(("ok", response.to_json()))
                elif tag == "delta":
                    pipe.send(("ok", store.apply(message[1])))
                elif tag == "stats":
                    pipe.send(
                        (
                            "ok",
                            {
                                "session": (
                                    connection.session.stats.as_dict()
                                ),
                                "store": store.cache_stats(),
                                "plane": plane.counters(),
                            },
                        )
                    )
                elif tag == "ping":
                    if _chaos_fire("pool.slow_ping"):
                        time.sleep(0.05)
                    pipe.send(("ok", "pong"))
                elif tag == "drain":
                    pipe.send(("ok", None))
                    break
                else:
                    pipe.send(("err", f"unknown message tag {tag!r}"))
            except ChaosCrash:
                # An injected crash must look like a real process
                # death: unwind, die, and let the supervisor's crash
                # detection respawn us.  Sending ("err", ...) here
                # would acknowledge past the crash.
                raise
            except Exception as error:  # noqa: BLE001 - keep serving
                # Library errors were already converted by execute();
                # anything reaching here is unexpected, but one bad
                # message must not kill the worker.
                try:
                    pipe.send(("err", repr(error)))
                except (BrokenPipeError, OSError):
                    break
    finally:
        for attached in plane.attachments:
            attached.close()
        pipe.close()


__all__ = ["PlaneClient", "WorkerSpec", "worker_main"]
