"""MVCC snapshot retention (:mod:`repro.session.mvcc`).

The keep-serving contract, bottom-up: the :class:`SnapshotPlane`'s
window/refcount mechanics, the store's version-pinned reads and
artifact garbage collection, and the facade-level acceptance
criterion — a view prepared at version N keeps answering (full
``Sequence`` semantics plus rank round-trips) after two mutations
while fresh prepares see N+2 — on every engine.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

import repro
from repro import Database, Delta, StaleViewError, connect
from repro.session import ArtifactStore, DEFAULT_RETAIN, SnapshotPlane

PATH = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(1, 2), (3, 2), (3, 4)},
    "S": {(2, 7), (2, 9), (4, 1)},
}


def fresh_database() -> Database:
    return Database({name: set(rows) for name, rows in RELATIONS.items()})


def db(n: int) -> Database:
    return Database({"R": {(n, n)}})


class TestSnapshotPlane:
    def test_window_retains_the_last_k_versions(self):
        plane = SnapshotPlane(retain=2)
        assert plane.record(0, db(0)) == {}
        assert plane.record(1, db(1)) == {}
        assert plane.record(2, db(2)) == {0: db(0)}
        assert plane.versions() == (1, 2)
        assert plane.get(1) == db(1)
        assert plane.get(0) is None
        assert 0 not in plane and 2 in plane
        assert plane.snapshots_evicted == 1

    def test_pin_extends_lifetime_beyond_the_window(self):
        plane = SnapshotPlane(retain=1)
        plane.record(0, db(0))
        assert plane.pin(0)
        assert plane.record(1, db(1)) == {}  # pinned: not evicted
        assert plane.get(0) == db(0)
        # Second pin on the same version: last release is the trigger.
        assert plane.pin(0)
        assert not plane.release(0)
        assert 0 in plane
        assert plane.release(0)  # last view closed ...
        assert 0 not in plane  # ... and the out-of-window version died
        assert plane.versions() == (1,)

    def test_pin_of_an_evicted_version_fails(self):
        plane = SnapshotPlane(retain=1)
        plane.record(0, db(0))
        plane.record(1, db(1))
        assert not plane.pin(0)
        assert not plane.release(0)  # over-release is harmless

    def test_in_window_release_keeps_the_snapshot(self):
        plane = SnapshotPlane(retain=4)
        plane.record(0, db(0))
        plane.pin(0)
        assert plane.release(0)
        assert 0 in plane  # still inside the window

    def test_counters(self):
        plane = SnapshotPlane(retain=2)
        plane.record(0, db(0))
        plane.pin(0)
        plane.record(1, db(1))
        counters = plane.counters()
        assert counters["retained"] == 2
        assert counters["retain_limit"] == 2
        assert counters["pinned_versions"] == 1
        assert counters["open_views"] == 1
        assert counters["views_pinned"] == 1
        assert counters["views_released"] == 0


class TestStoreMVCC:
    def test_database_at_resolves_head_and_snapshots(self):
        store = ArtifactStore(fresh_database())
        head = store.database
        store.apply(Delta(inserts={"R": {(9, 9)}}))
        assert store.database_at(1) is store.database
        assert store.database_at(0) == head
        with pytest.raises(StaleViewError, match="ahead of the head"):
            store.database_at(99)
        narrow = ArtifactStore(fresh_database(), retain_versions=1)
        narrow.apply(Delta(inserts={"R": {(9, 9)}}))
        with pytest.raises(StaleViewError, match="evicted"):
            narrow.database_at(0)

    def test_window_eviction_gcs_old_artifacts(self):
        store = ArtifactStore(fresh_database(), retain_versions=1)
        store.access(PATH, order=["x", "y", "z"])  # caches at v0
        store.apply(Delta(inserts={"R": {(9, 9)}}))
        stats = store.cache_stats()
        assert stats["mvcc"]["retained"] == 1  # only the head
        assert stats["mvcc"]["snapshots_evicted"] == 1
        assert stats["artifacts_invalidated"] > 0
        assert stats["artifacts_retained"] == 0  # no open views

    def test_pinned_version_retains_artifacts_until_release(self):
        store = ArtifactStore(fresh_database(), retain_versions=1)
        store.access(PATH, order=["x", "y", "z"])
        assert store.pin_version(0)
        store.apply(Delta(inserts={"R": {(9, 9)}}))
        stats = store.cache_stats()
        assert stats["artifacts_retained"] > 0
        assert stats["artifacts_gcd"] == 0
        assert store.is_readable(0)
        store.release_version(0)  # deferred, drained at next entry
        assert not store.is_readable(0)
        assert store.cache_stats()["artifacts_gcd"] > 0

    def test_effectively_empty_delta_is_a_no_op(self):
        store = ArtifactStore(fresh_database())
        # Insert an existing row, delete an absent one: nothing changes.
        version = store.apply(
            Delta(inserts={"R": {(1, 2)}}, deletes={"S": {(0, 0)}})
        )
        assert version == 0 and store.db_version == 0
        stats = store.cache_stats()
        assert stats["noop_deltas"] == 1
        assert stats["deltas_applied"] == 0
        assert Delta().is_empty
        assert store.apply(Delta()) == 0  # literally empty: same story

    def test_worker_stores_can_start_mid_history(self):
        # A worker process attaching at the supervisor's version must
        # not restart the version counter (pins would cross wires).
        store = ArtifactStore(fresh_database(), db_version=7)
        assert store.db_version == 7
        assert store.apply(Delta(inserts={"R": {(9, 9)}})) == 8


def answers(access) -> list[tuple]:
    return [access.tuple_at(i) for i in range(len(access))]


def work(store: ArtifactStore) -> tuple[int, int]:
    """The from-scratch build counters."""
    return store.stats.bag_materializations, store.stats.forest_builds


class TestOneLifetime:
    """An artifact cached at version ``v`` stays until ``v`` leaves the
    snapshot plane or the cache's capacity evicts it; its dependency
    record and request entry live exactly as long."""

    ORDER = ["x", "y", "z"]

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_pinned_read_after_apply_builds_nothing(self, engine):
        store = ArtifactStore(fresh_database(), engine=engine)
        before = answers(store.access(PATH, order=self.ORDER))
        version = store.apply(Delta(inserts={"R": {(9, 2)}}))
        built = work(store)
        pinned, served_at = store.access_versioned(
            PATH, order=self.ORDER, at_version=version - 1
        )
        assert served_at == version - 1
        assert work(store) == built
        assert answers(pinned) == before

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_a_closed_view_leaves_its_version_warm(self, engine):
        # The view's last release drains while its version is no
        # longer the head but is still inside the K = 4 window.
        conn = connect(fresh_database(), engine=engine)
        view = conn.prepare(PATH, order=self.ORDER)
        pinned_at, before = view.db_version, list(view)
        conn.insert("R", [(9, 2)])
        view.close()
        conn.insert("R", [(10, 2)])
        store = conn.session
        built = work(store)
        pinned, _ = store.access_versioned(
            PATH, order=self.ORDER, at_version=pinned_at
        )
        assert work(store) == built
        assert answers(pinned) == before

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_the_patch_base_is_never_written(self, engine):
        store = ArtifactStore(fresh_database(), engine=engine)
        original = store.access(PATH, order=self.ORDER)
        before = answers(original)
        version = store.apply(Delta(inserts={"R": {(9, 2)}}))
        patches, builds = store.stats.forest_patches, store.stats.forest_builds
        head = store.access(PATH, order=self.ORDER)
        assert store.stats.forest_patches > patches
        assert store.stats.forest_builds == builds
        assert (9, 2, 7) in answers(head)
        built = work(store)
        pinned, _ = store.access_versioned(
            PATH, order=self.ORDER, at_version=version - 1
        )
        assert work(store) == built
        assert pinned is original
        scratch = ArtifactStore(
            store.database_at(version - 1), engine=engine
        ).access(PATH, order=self.ORDER)
        assert answers(pinned) == answers(scratch) == before
        for index, row in enumerate(before):
            assert pinned.rank_of(row) == index

    @staticmethod
    def lock_states_at_free(store, artifact) -> list[bool]:
        """Whether the registry lock was held when ``artifact`` was
        freed (empty until it is)."""
        states: list[bool] = []
        weakref.finalize(
            artifact,
            lambda: states.append(store._registry_lock.locked()),
        )
        return states

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_apply_frees_evicted_versions_after_the_lock(self, engine):
        store = ArtifactStore(
            fresh_database(), engine=engine, retain_versions=1
        )
        states = self.lock_states_at_free(
            store, store.access(PATH, order=self.ORDER)
        )
        gc.collect()
        store.apply(Delta(inserts={"R": {(9, 2)}}))  # evicts version 0
        assert states == [False]

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_closing_the_last_view_frees_its_version_after_the_lock(
        self, engine
    ):
        conn = connect(fresh_database(), engine=engine, retain_versions=1)
        view = conn.prepare(PATH, order=self.ORDER)
        store = conn.session
        states = self.lock_states_at_free(store, view._access)
        conn.insert("R", [(9, 2)])  # version 0 leaves the window, pinned
        gc.collect()
        assert states == []
        view.close()
        del view
        assert store.is_readable(1)  # drains the release
        assert 0 not in store.snapshots
        assert states == [False]

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_dependency_records_never_outnumber_artifacts(self, engine):
        names = [f"R{i}" for i in range(50)]
        store = ArtifactStore(
            {name: {(i, i + 1)} for i, name in enumerate(names)},
            engine=engine, capacity=2,
        )
        for i, name in enumerate(names):
            assert len(store.access(f"Q(x, y) :- {name}(x, y)")) == 1
            if i % 10 == 9:
                store.apply(Delta(inserts={name: {(0, 0)}}))
            resident = sum(
                len(store.cache(kind)) for kind in ArtifactStore.KINDS
            )
            assert len(store._deps) <= resident
            assert store.request_count() <= len(store.cache("access"))

    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_racing_writes_and_pinned_reads(self, engine):
        """One writer, five readers at the head and at retained old
        versions, a capacity that evicts: every answer is its version's,
        and the records still match the resident artifacts."""
        store = ArtifactStore(fresh_database(), engine=engine, capacity=3)
        writes = 12

        def expected(version: int) -> list[tuple]:
            r_rows = RELATIONS["R"] | {(10 + j, 2) for j in range(version)}
            return sorted(
                (x, y, z)
                for x, y in r_rows
                for y2, z in RELATIONS["S"]
                if y == y2
            )

        errors: list[BaseException] = []
        barrier = threading.Barrier(6, timeout=10)

        def writer():
            try:
                barrier.wait()
                for j in range(writes):
                    store.apply(Delta(inserts={"R": {(10 + j, 2)}}))
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        def reader(index):
            try:
                barrier.wait()
                for round_ in range(30):
                    pinned = None
                    if round_ % 2:
                        pinned = max(0, store.db_version - 1 - index % 3)
                    try:
                        access, version = store.access_versioned(
                            PATH, order=self.ORDER, at_version=pinned
                        )
                    except StaleViewError:
                        continue  # the window moved past it
                    assert answers(access) == expected(version), version
            except BaseException as error:  # noqa: BLE001 (collected)
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(index,))
            for index in range(5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert store.db_version == writes
        resident = sum(len(store.cache(kind)) for kind in store.KINDS)
        assert len(store._deps) == resident
        assert store.request_count() <= len(store.cache("access"))
        retained = set(store.snapshots.versions())
        for kind in store.KINDS:
            assert {v for v, _ in store.cache(kind).keys()} <= retained


class TestFacadeAcceptance:
    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_view_at_n_survives_two_mutations(self, engine):
        """The PR's acceptance sequence: prepare at N, mutate twice,
        the pinned view still answers everything it answered at N
        while a fresh prepare sees N+2."""
        conn = connect(fresh_database(), engine=engine)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        pinned_at = view.db_version
        rows = list(view)
        assert conn.apply(Delta(inserts={"R": {(9, 2)}})) == pinned_at + 1
        assert (
            conn.apply(Delta(deletes={"S": {(4, 1)}}))
            == pinned_at + 2
        )
        # Full Sequence semantics from the snapshot ...
        assert len(view) == len(rows)
        assert list(view) == rows
        assert view[0] == rows[0] and view[-1] == rows[-1]
        assert [tuple(r) for r in view[1:3]] == rows[1:3]
        assert rows[0] in view and (99, 99, 99) not in view
        # ... and rank round-trips on every answer.
        for index, row in enumerate(rows):
            assert view.rank(row) == index
            assert view[view.rank(row)] == row
        assert view.ranks(rows) == list(range(len(rows)))
        # Fresh prepares are served at the new head.
        fresh = conn.prepare(PATH, order=["x", "y", "z"])
        assert fresh.db_version == pinned_at + 2
        assert (9, 2, 7) in fresh
        assert (3, 4, 1) not in fresh

    def test_default_retention_window_is_documented(self):
        assert DEFAULT_RETAIN == 4
        conn = connect(fresh_database())
        view = conn.prepare(PATH, order=["x", "y", "z"])
        view.close()
        # With the pin dropped, the default window still covers 4
        # versions: three mutations in, version 0 remains readable ...
        for step in range(3):
            conn.insert("R", [(50 + step, 50)])
        assert len(view) == 5
        # ... and the fourth evicts it.
        conn.insert("R", [(53, 50)])
        with pytest.raises(StaleViewError):
            len(view)

    def test_closing_views_releases_their_pins(self):
        conn = connect(fresh_database(), retain_versions=1)
        with conn.prepare(PATH, order=["x", "y", "z"]) as view:
            conn.insert("R", [(9, 2)])
            assert view.db_version == 0 and len(view) == 5
        # The context manager closed the view; its snapshot is gone.
        with pytest.raises(StaleViewError):
            view[0]
        stats = conn.stats()["store"]["mvcc"]
        assert stats["views_released"] >= 1
        assert stats["open_views"] == 0

    def test_dropped_views_release_via_the_finalizer(self):
        conn = connect(fresh_database(), retain_versions=1)
        view = conn.prepare(PATH, order=["x", "y", "z"])
        conn.insert("R", [(9, 2)])
        del view
        gc.collect()
        conn.insert("R", [(10, 2)])  # any store entry drains releases
        stats = conn.stats()["store"]["mvcc"]
        assert stats["open_views"] == 0
        assert stats["retained"] == 1

    def test_connect_rejects_server_side_kwargs_for_urls(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="server-side"):
            connect("http://127.0.0.1:1/", retain_versions=2)
