"""Deterministic fault injection (:mod:`repro.chaos`).

Three layers, bottom-up: the fault-point registry and its seeded
schedules (pure unit tests), the crash matrix (a live serving core is
killed at every WAL injection site, on every engine, and must
converge after restart), and the harness's own honesty checks — the
double-run determinism law and the mutation-of-the-checker test that
proves the model checker still catches a real lost write.

The crash-matrix cases boot and restart real serving cores, so each
case keeps ``ops`` small and uses the quick seed database.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.chaos import faults
from repro.chaos.deltas import delta_sequence, random_delta, shrink_deltas
from repro.chaos.faults import FAULT_POINTS, ChaosCrash, ChaosPlan
from repro.chaos.runner import run_chaos
from repro.data.database import Database
from repro.data.delta import Delta

ENGINES = repro.available_engines()

WAL_SITES = ("wal.fsync", "wal.torn_write", "wal.corrupt_crc")


@pytest.fixture(autouse=True)
def _disarmed():
    """No test may leak an armed plan into the rest of the suite."""
    yield
    faults.disarm()


class TestFaultPlan:
    def test_spec_grammar_round_trips(self):
        plan = ChaosPlan(
            "seed=7, wal.fsync:nth=3; client.timeout:p=0.25,"
            "client.disconnect"
        )
        assert plan.seed == 7
        assert plan.sites() == (
            "client.disconnect",
            "client.timeout",
            "wal.fsync",
        )

    def test_unknown_site_is_rejected_with_the_known_list(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            ChaosPlan("wal.fsnyc:once")

    @pytest.mark.parametrize("bad", ["wal.fsync:nth=0", "wal.fsync:p=1.5",
                                     "wal.fsync:every=3"])
    def test_bad_schedules_are_rejected(self, bad):
        with pytest.raises(ValueError):
            ChaosPlan(bad)

    def test_once_fires_exactly_once(self):
        plan = ChaosPlan("client.disconnect:once")
        assert [plan.fire("client.disconnect") for _ in range(5)] == [
            True, False, False, False, False,
        ]

    def test_nth_fires_every_nth_call(self):
        plan = ChaosPlan("wal.fsync:nth=3")
        assert [plan.fire("wal.fsync") for _ in range(7)] == [
            False, False, True, False, False, True, False,
        ]

    def test_probability_schedule_is_seeded(self):
        def stream(seed):
            plan = ChaosPlan("client.timeout:p=0.5", seed=seed)
            return [plan.fire("client.timeout") for _ in range(64)]

        draws = [stream(9), stream(9), stream(10)]
        assert draws[0] == draws[1]  # same seed, same stream
        assert draws[0] != draws[2]  # a different seed diverges
        assert any(draws[0]) and not all(draws[0])

    def test_sites_not_in_the_plan_never_fire(self):
        plan = ChaosPlan("wal.fsync:once")
        assert plan.fire("wal.torn_write") is False

    def test_counters_track_calls_and_fires(self):
        plan = ChaosPlan("wal.fsync:nth=2")
        for _ in range(5):
            plan.fire("wal.fsync")
        assert plan.counters() == {
            "wal.fsync": {"calls": 5, "fired": 2}
        }
        assert plan.fired_total == 2

    def test_registry_names_all_carry_a_subsystem_prefix(self):
        for name in FAULT_POINTS:
            prefix, _, rest = name.partition(".")
            assert prefix in {"wal", "client"} and rest


class TestArming:
    def test_disarmed_is_the_default_and_fires_nothing(self):
        assert faults.active_plan() is None
        assert faults.fire("wal.fsync") is False

    def test_arm_and_disarm(self):
        faults.arm("wal.fsync:once")
        assert faults.active_plan() is not None
        assert faults.fire("wal.fsync") is True
        faults.disarm()
        assert faults.fire("wal.fsync") is False

    def test_armed_context_restores_the_previous_plan(self):
        outer = faults.arm("wal.fsync:once")
        with faults.armed("client.timeout:once") as inner:
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer

    def test_crash_raises_chaos_crash_with_the_site(self):
        with faults.armed("wal.fsync:once"):
            with pytest.raises(ChaosCrash) as excinfo:
                faults.crash("wal.fsync")
        assert excinfo.value.site == "wal.fsync"

    def test_env_spec_arms_fresh_processes(self):
        """The inheritance seam: a fresh interpreter with
        ``REPRO_CHAOS`` set arms itself at import."""
        env = dict(os.environ)
        env["REPRO_CHAOS"] = "seed=3,wal.fsync:nth=2"
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.chaos import faults; "
                "plan = faults.active_plan(); "
                "print(plan.seed, *plan.sites())",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["3", "wal.fsync"]


CRASH_CASES = [(site, engine) for site in WAL_SITES for engine in ENGINES]


class TestCrashMatrix:
    @pytest.mark.parametrize(
        "site,engine",
        CRASH_CASES,
        ids=[f"{site}-{engine}-threads" for site, engine in CRASH_CASES],
    )
    def test_killed_at_site_and_converges(self, site, engine):
        """``once`` schedules fire on the first pass *per boot*, so
        one run exercises several crash/restart cycles."""
        report = run_chaos(
            seed=5,
            ops=18,
            faults_spec=f"{site}:once",
            engine=engine,
            quick=True,
            workers=2,
        )
        assert report.verdict == "pass", report.violations
        fired = report.fault_counters.get(site, {}).get("fired", 0)
        # Every WAL fault is a process death: the run must have
        # actually crashed and recovered, at least once.
        assert report.crashes >= 1
        assert report.restarts == report.crashes + 1
        assert fired == report.crashes
        assert report.executed + report.crashes == report.ops


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        runs = [
            run_chaos(seed=21, ops=80, quick=True) for _ in range(2)
        ]
        assert runs[0].fingerprint() == runs[1].fingerprint()
        assert runs[0].crashes >= 1  # the default plan really fires

    def test_different_seeds_diverge(self):
        a = run_chaos(seed=21, ops=80, quick=True)
        b = run_chaos(seed=22, ops=80, quick=True)
        assert a.fingerprint() != b.fingerprint()


class TestMutationOfTheChecker:
    def test_a_lost_write_bug_is_caught(self, monkeypatch):
        """Re-introduce the bug the harness exists to catch — applied
        mutations that never reach the WAL — and assert the verdict.
        No faults are injected: only the closing clean-restart
        convergence check can see it, which is exactly the point."""
        from repro.data.wal import WriteAheadLog

        monkeypatch.setattr(
            WriteAheadLog,
            "append_delta",
            lambda self, delta, db_version: db_version,
        )
        report = run_chaos(seed=5, ops=30, faults_spec="", quick=True)
        assert report.verdict == "fail"
        kinds = {violation.kind for violation in report.violations}
        assert kinds == {"lost_acknowledged_write"}
        assert report.repro is not None
        assert report.repro.startswith("repro chaos --seed 5")

    def test_healthy_build_passes_the_same_run(self):
        report = run_chaos(seed=5, ops=30, faults_spec="", quick=True)
        assert report.verdict == "pass"
        assert report.violations == []


class TestDeltaGenerator:
    DATABASE = Database(
        {"R": {(1, 2), (3, 4), (5, 6)}, "S": {(2, 3), (4, 5)}}
    )

    def test_sequences_are_seeded(self):
        a = delta_sequence(3, self.DATABASE, 8)
        b = delta_sequence(3, self.DATABASE, 8)
        c = delta_sequence(4, self.DATABASE, 8)
        assert a == b
        assert a != c

    def test_deltas_respect_arity(self):
        import random

        rng = random.Random(0)
        for _ in range(50):
            delta = random_delta(rng, self.DATABASE)
            for rows in (*delta.inserts.values(), *delta.deletes.values()):
                assert all(len(row) == 2 for row in rows)

    def test_shrink_finds_the_minimal_failing_sequence(self):
        """A predicate that only needs one row — (7, 7) inserted into
        R — must shrink down to exactly that single-row delta no
        matter how much noise the original sequence carries."""
        noise = delta_sequence(1, self.DATABASE, 6)
        poison = Delta(
            inserts={"R": {(7, 7), (8, 8)}, "S": {(9, 9)}},
            deletes={"S": {(2, 3)}},
        )
        sequence = noise[:3] + [poison] + noise[3:]

        def fails(deltas):
            return any(
                (7, 7) in delta.inserts.get("R", ()) for delta in deltas
            )

        minimal = shrink_deltas(sequence, fails)
        assert len(minimal) == 1
        assert minimal[0] == Delta(inserts={"R": {(7, 7)}})

    def test_shrink_rejects_a_passing_sequence(self):
        with pytest.raises(ValueError, match="failing sequence"):
            shrink_deltas([Delta()], lambda deltas: False)


class TestChaosCLI:
    def test_pass_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--seed", "1", "--ops", "40", "--quick"]) == 0
        out = capsys.readouterr().out
        assert ": PASS" in out
        assert "executed=" in out

    def test_json_report(self, capsys):
        import json

        from repro.cli import main

        code = main(
            [
                "chaos", "--seed", "2", "--ops", "30", "--quick",
                "--faults", "none", "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        assert report["faults"] == ""

    def test_unknown_fault_site_dies_with_one_line(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown fault point"):
            main(["chaos", "--ops", "5", "--faults", "wal.nope:once"])
