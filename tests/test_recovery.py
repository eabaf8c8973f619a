"""Crash recovery: append-before-apply replay convergence.

The durability acceptance of the WAL PR: a crash in the window
*after* the log append but *before* the in-memory apply/publish is
repaired by replay-on-boot — the recovered store lands at the same
``db_version`` with bit-identical answers on every engine — and a
``repro serve --wal`` restart recovers the pre-kill state over HTTP.
"""

from __future__ import annotations

import pytest

import repro
from repro import Database, Delta, WriteAheadLog, connect
from repro.session import ArtifactStore

PATH = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(1, 2), (3, 2), (3, 4)},
    "S": {(2, 7), (2, 9), (4, 1)},
}

D1 = Delta(inserts={"R": {(9, 2)}})
D2 = Delta(inserts={"S": {(2, 42)}}, deletes={"R": {(1, 2)}})


def fresh_database() -> Database:
    return Database({name: set(rows) for name, rows in RELATIONS.items()})


def answers(database, engine=None) -> list[tuple]:
    view = connect(database, engine=engine).prepare(
        PATH, order=["x", "y", "z"]
    )
    return list(view)


class TestKillMidApply:
    @pytest.mark.parametrize("engine", repro.available_engines())
    def test_append_without_apply_converges_on_replay(
        self, tmp_path, engine
    ):
        """Simulate the crash window: the D2 record is durable but the
        in-memory apply never ran (the process died between append and
        publish).  Replay must re-apply it — same db_version, same
        answers as the crash-free run."""
        path = tmp_path / "serve.wal"
        wal = WriteAheadLog(path)
        database, version = wal.recover(fresh_database(), seed=True)
        store = ArtifactStore(
            database, engine=engine, db_version=version, wal=wal
        )
        assert store.apply(D1) == 1  # logged, then applied
        # -- the crash window: append lands, the apply never does.
        wal.append_delta(
            D2.effective_against(store.database), store.db_version + 1
        )
        wal.close()

        recovered, recovered_version = WriteAheadLog(path).recover()
        assert recovered_version == 2
        expected = fresh_database().apply(D1).apply(D2)
        assert recovered == expected
        assert answers(recovered, engine) == answers(expected, engine)

    def test_replayed_answers_are_identical_across_engines(
        self, tmp_path
    ):
        path = tmp_path / "serve.wal"
        with WriteAheadLog(path) as wal:
            wal.recover(fresh_database(), seed=True)
            wal.append_delta(D1, 1)
            wal.append_delta(D2, 2)
        recovered, version = WriteAheadLog(path).recover()
        assert version == 2
        per_engine = [
            answers(recovered, engine)
            for engine in repro.available_engines()
        ]
        assert all(result == per_engine[0] for result in per_engine)

    def test_double_replay_is_idempotent(self, tmp_path):
        path = tmp_path / "serve.wal"
        with WriteAheadLog(path) as wal:
            wal.recover(fresh_database(), seed=True)
            wal.append_delta(D1, 1)
        first = WriteAheadLog(path).recover()
        second = WriteAheadLog(path).recover()
        assert first == second


class TestServerRestart:
    def test_serve_with_wal_recovers_over_http(self, tmp_path):
        from repro.server import ReproServer

        path = tmp_path / "serve.wal"
        with ReproServer(fresh_database(), wal=str(path)) as server:
            conn = connect(server.url)
            assert conn.apply(D1) == 1
            assert conn.apply(D2) == 2
            # An effectively-empty delta must not touch the log.
            seq = conn.stats()["durability"]["wal_seq"]
            assert conn.apply(Delta(deletes={"R": {(0, 0)}})) == 2
            assert conn.stats()["durability"]["wal_seq"] == seq
            before = list(conn.prepare(PATH, order=["x", "y", "z"]))
            version = conn.db_version
            health = server.health()
            assert health["durable"] and health["db_version"] == 2
            conn.close()

        # A cold restart on the same log: the passed database is only
        # the seed fallback — replay must win.
        with ReproServer(fresh_database(), wal=str(path)) as server:
            conn = connect(server.url)
            assert conn.db_version == version
            after = list(conn.prepare(PATH, order=["x", "y", "z"]))
            assert after == before
            durability = conn.stats()["durability"]
            assert durability["db_version"] == version
            assert durability["wal_seq"] == seq
            assert durability["snapshots_retained"] >= 1
            conn.close()
