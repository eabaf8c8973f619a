"""MVCC snapshot retention for the artifact store: :class:`SnapshotPlane`.

The paper's structures are expensive to build and cheap to query —
exactly the shape multi-version concurrency rewards.  Before this
module, :meth:`ArtifactStore.apply` dropped the old database object on
every mutation, so a version-pinned :class:`~repro.facade.AnswerView`
had nothing left to serve and every read raised
:class:`~repro.errors.StaleViewError`.  The plane keeps history
instead:

* the store records every ``(db_version, database)`` head here, with
  the effective delta that made it, and the plane retains the **last K
  versions** (``retain``, default :data:`DEFAULT_RETAIN`) — bounded
  memory, cheap because ``Database.apply`` shares every untouched
  relation object between versions;
* prepared views **pin** their version (a per-version refcount); a
  pinned version outlives the K-window until its last view closes, so
  an open view *always* keeps serving its snapshot;
* the store keeps the artifacts cached under a version exactly as long
  as the plane keeps that version (or until the cache's own capacity
  evicts them): a read pinned to a retained version finds them warm,
  and the read after a write patches from the newest older one,
  stepping through the recorded deltas (:meth:`SnapshotPlane.step`);
* when a version leaves the plane — a version with no views falls out
  of the window, or the last view of an out-of-window version closes —
  its snapshot and delta are dropped and the store garbage-collects the
  artifacts cached under it;
* :class:`~repro.errors.StaleViewError` remains only as the fallback
  for reads of an *evicted* version.

The plane itself is deliberately lock-free: every call happens under
the owning store's registry lock (pin/release arrive through the
store, which defers releases from ``weakref`` finalizers onto a queue
to stay deadlock-free).
"""

from __future__ import annotations

from repro.data.database import Database

#: How many ``(db_version, database)`` snapshots a store retains by
#: default.  Views pinned to an in-window version keep serving across
#: that many subsequent mutations; refcounts extend the lifetime of
#: pinned versions beyond the window until their last view closes.
DEFAULT_RETAIN = 4


class SnapshotPlane:
    """Retains the last K database versions, refcounted by open views.

    Not thread-safe on its own: the owning
    :class:`~repro.session.artifacts.ArtifactStore` serializes all
    access under its registry lock.
    """

    def __init__(self, retain: int = DEFAULT_RETAIN):
        self.retain = max(1, int(retain))
        # version -> (the effective delta that made it, its database);
        # the delta is ``None`` for the first recorded version.
        self._snapshots: dict[int, tuple] = {}
        self._refs: dict[int, int] = {}
        # Monotonic counters, surfaced in the store's cache_stats().
        self.snapshots_evicted = 0
        self.views_pinned = 0
        self.views_released = 0

    # -- recording history -------------------------------------------------

    def record(
        self, version: int, database: Database, delta=None
    ) -> dict[int, Database]:
        """Register a new head, made by ``delta`` from the previous
        one; returns the versions evicted by the K-window, each with
        its database, so the caller can let them go outside its lock
        (pinned versions are never evicted here — they drain through
        :meth:`release`)."""
        self._snapshots[version] = (delta, database)
        keep = self._window()
        evicted = {
            v: self._snapshots[v][1]
            for v in list(self._snapshots)
            if v not in keep and self._refs.get(v, 0) == 0
        }
        for v in evicted:
            del self._snapshots[v]
            self._refs.pop(v, None)
        self.snapshots_evicted += len(evicted)
        return evicted

    def _window(self) -> set[int]:
        return set(sorted(self._snapshots)[-self.retain :])

    # -- reading history ---------------------------------------------------

    def get(self, version: int) -> Database | None:
        """The retained database for ``version`` (``None`` = evicted)."""
        entry = self._snapshots.get(version)
        return None if entry is None else entry[1]

    def step(self, version: int) -> tuple | None:
        """``(delta, database)``: the effective delta that made
        ``version`` from ``version - 1``, and ``version``'s database;
        ``None`` when the version was evicted or was the first one
        recorded."""
        entry = self._snapshots.get(version)
        return None if entry is None or entry[0] is None else entry

    def __contains__(self, version: int) -> bool:
        return version in self._snapshots

    def __len__(self) -> int:
        return len(self._snapshots)

    def versions(self) -> tuple[int, ...]:
        return tuple(sorted(self._snapshots))

    # -- refcounts (view pins) ---------------------------------------------

    def pin(self, version: int) -> bool:
        """Take a reference on ``version``; ``False`` if it is no
        longer retained (the caller's view is born stale)."""
        if version not in self._snapshots:
            return False
        self._refs[version] = self._refs.get(version, 0) + 1
        self.views_pinned += 1
        return True

    def release(self, version: int) -> bool:
        """Drop one reference; ``True`` exactly when this was the last
        view of ``version``.  An out-of-window version is evicted here,
        deferred until its last view closed (the caller GCs its
        artifacts once the version is no longer retained)."""
        count = self._refs.get(version, 0)
        if count <= 0:
            return False
        self.views_released += 1
        if count > 1:
            self._refs[version] = count - 1
            return False
        del self._refs[version]
        if version in self._snapshots and version not in self._window():
            del self._snapshots[version]
            self.snapshots_evicted += 1
        return True

    # -- observability -----------------------------------------------------

    def counters(self) -> dict:
        return {
            "retained": len(self._snapshots),
            "retain_limit": self.retain,
            "pinned_versions": len(self._refs),
            "open_views": sum(self._refs.values()),
            "snapshots_evicted": self.snapshots_evicted,
            "views_pinned": self.views_pinned,
            "views_released": self.views_released,
        }

    def __repr__(self) -> str:
        return (
            f"SnapshotPlane(retain={self.retain}, "
            f"versions={list(self.versions())}, refs={self._refs})"
        )


__all__ = ["DEFAULT_RETAIN", "SnapshotPlane"]
