"""The chaos runner: drive, crash, restart, model-check, report.

One run is fully determined by ``(seed, ops, faults, engine)``:
the seed fixes the initial database, the op stream, and every fault
schedule, so any failure replays from its report's reproduction line
alone.  The runner drives :class:`~repro.server.http.ServingCore`
directly (transport-independent — the wire layers are differential-
tested elsewhere) and treats :class:`~repro.chaos.faults.ChaosCrash`
as the process-death boundary: the core is torn down and a fresh one
boots from the same WAL, exactly like a supervised restart, after
which the shadow model asserts convergence.

A run always ends with one clean restart + convergence check, so a
*silent* lost write (no crash anywhere) is still caught — that is
what the mutation-of-the-checker test leans on.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.chaos import faults
from repro.chaos.faults import ChaosCrash
from repro.chaos.model import ShadowModel, Violation
from repro.chaos.workload import Workload, WorkloadOp, seed_database

#: Default fault plan: every durability-path site, each on its own
#: cadence so crashes interleave with clean traffic.
WAL_FAULTS = (
    "wal.fsync:nth=13,wal.torn_write:nth=29,wal.corrupt_crc:nth=37"
)

#: Read failures chaos may legitimately cause (an evicted snapshot, a
#: full queue): tolerated, never adopted as state.
_TOLERATED_READ_ERRORS = frozenset({"StaleViewError", "OverloadedError"})


@dataclass
class ChaosReport:
    """The verdict plus everything needed to replay it."""

    seed: int
    ops: int
    faults: str
    engine: str
    verdict: str = "pass"
    executed: int = 0
    crashes: int = 0
    restarts: int = 0
    ops_survived: int = 0
    violations: list = field(default_factory=list)
    fault_counters: dict = field(default_factory=dict)
    repro: str | None = None

    def fingerprint(self) -> dict:
        """Everything deterministic in the run — two runs with the
        same parameters must produce identical fingerprints (the
        double-run acceptance test compares exactly this)."""
        return {
            "seed": self.seed,
            "ops": self.ops,
            "faults": self.faults,
            "engine": self.engine,
            "verdict": self.verdict,
            "executed": self.executed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "ops_survived": self.ops_survived,
            "violations": [v.as_dict() for v in self.violations],
            "fault_counters": self.fault_counters,
        }

    def as_dict(self) -> dict:
        out = self.fingerprint()
        out["repro"] = self.repro
        return out


def _build_request(op: WorkloadOp, query: str, order):
    from repro.session.protocol import SessionRequest

    params = op.params
    if op.kind == "apply":
        delta = params["delta"]
        return SessionRequest(
            op="apply",
            inserts={
                name: sorted(rows)
                for name, rows in delta.inserts.items()
            },
            deletes={
                name: sorted(rows)
                for name, rows in delta.deletes.items()
            },
        )
    if op.kind == "db_version":
        return SessionRequest(op="db_version")
    shared = {"query": query, "order": tuple(order)}
    if op.kind == "access":
        return SessionRequest(
            op="access", indices=params["indices"], **shared
        )
    if op.kind == "count":
        return SessionRequest(op="count", **shared)
    if op.kind == "median":
        return SessionRequest(op="median", **shared)
    if op.kind == "page":
        return SessionRequest(
            op="page",
            page_number=params["page_number"],
            page_size=params["page_size"],
            **shared,
        )
    if op.kind == "rank":
        return SessionRequest(op="rank", answer=params["answer"], **shared)
    if op.kind == "pinned_access":
        return SessionRequest(
            op="access",
            indices=params["indices"],
            db_version=params["db_version"],
            **shared,
        )
    if op.kind == "pinned_count":
        return SessionRequest(
            op="count", db_version=params["db_version"], **shared
        )
    raise ValueError(f"unbuildable workload op {op.kind!r}")


def _check_read(op: WorkloadOp, response, model: ShadowModel, index):
    """Compare an ok read response against the model's reference view."""
    pinned = op.kind in ("pinned_access", "pinned_count")
    version = op.params["db_version"] if pinned else None
    result = response.result

    def bad(detail):
        return [Violation(index, "read_divergence", f"{op.kind}: {detail}")]

    served_version = result.get("db_version")
    expected_version = version if pinned else model.db_version
    if served_version is not None and served_version != expected_version:
        return bad(
            f"served db_version {served_version}, expected "
            f"{expected_version}"
        )
    if op.kind in ("count", "pinned_count"):
        expected = model.count(version)
        if result["count"] != expected:
            return bad(f"count {result['count']}, expected {expected}")
    elif op.kind in ("access", "pinned_access"):
        expected = model.answers_at(op.params["indices"], version)
        if result["answers"] != expected:
            return bad(
                f"answers at {op.params['indices']} diverge from the "
                "model snapshot"
            )
    elif op.kind == "page":
        view = model.view()
        expected = [
            list(row)
            for row in view.page(
                op.params["page_number"], op.params["page_size"]
            )
        ]
        if result["answers"] != expected:
            return bad("page contents diverge from the model")
    elif op.kind == "median":
        expected = list(model.view().median())
        if result["answer"] != expected:
            return bad(
                f"median {result['answer']}, expected {expected}"
            )
    elif op.kind == "rank":
        expected = model.view().ranks([tuple(op.params["answer"])])[0]
        if result["rank"] != expected:
            return bad(
                f"rank {result['rank']}, expected {expected}"
            )
    elif op.kind == "db_version":
        if result["db_version"] != model.db_version:
            return bad(
                f"db_version {result['db_version']}, model holds "
                f"{model.db_version}"
            )
    return []


def run_chaos(
    seed: int = 1,
    ops: int = 300,
    faults_spec: str | None = None,
    engine: str | None = None,
    quick: bool = False,
    workers: int = 2,
) -> ChaosReport:
    """One full chaos run; see the module docstring.  Deterministic:
    equal arguments produce an identical
    :meth:`ChaosReport.fingerprint`."""
    from repro.data.wal import WriteAheadLog
    from repro.server.http import ServingCore

    spec = faults_spec if faults_spec is not None else WAL_FAULTS
    armed_spec = None
    if spec:
        armed_spec = spec if "seed=" in spec else f"seed={seed},{spec}"
        faults.ChaosPlan(armed_spec)  # validate site names up front
    database = seed_database(seed ^ 0x5EED, size=16 if quick else 48)
    wal_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    wal_path = os.path.join(wal_dir, "chaos.wal")
    # Seed the log before arming anything: server boots then replay
    # without appending, so no fault can fire during boot and wedge
    # the restart cycle.
    with WriteAheadLog(wal_path) as wal:
        wal.recover(database, seed=True)

    model = ShadowModel(database)
    workload = Workload(seed)
    counters: dict[str, dict[str, int]] = {}

    def harvest() -> None:
        plan = faults.active_plan()
        if plan is None:
            return
        for site, counts in plan.counters().items():
            bucket = counters.setdefault(
                site, {"calls": 0, "fired": 0}
            )
            bucket["calls"] += counts["calls"]
            bucket["fired"] += counts["fired"]

    def boot() -> ServingCore:
        return ServingCore(
            database,
            engine=engine,
            workers=workers,
            capacity=32,
            wal=wal_path,
            chaos=armed_spec,
        )

    def shutdown(core) -> None:
        harvest()
        try:
            core.close()
        except Exception:  # the core is being discarded post-crash
            faults.disarm()

    report = ChaosReport(
        seed=seed,
        ops=ops,
        faults=spec or "",
        engine="",
    )
    core = boot()
    report.engine = core.store.engine.name
    violations: list[Violation] = []
    try:
        for index in range(ops):
            op = workload.next_op(model)
            if op.kind == "pin":
                model.pin()
                report.executed += 1
                continue
            request = _build_request(op, model.query, model.order)
            if op.kind == "apply":
                model.begin_mutation(op.params["delta"])
            try:
                response = core.execute(request)
            except ChaosCrash:
                report.crashes += 1
                shutdown(core)
                core = boot()
                report.restarts += 1
                violations.extend(
                    model.reconcile_restart(
                        core.store.database,
                        core.store.db_version,
                        index,
                    )
                )
                if violations:
                    break
                continue
            report.executed += 1
            if op.kind == "apply":
                if response.ok:
                    violations.extend(
                        model.ack_mutation(
                            response.result["db_version"], index
                        )
                    )
                else:
                    model.abort_mutation()
                    if response.error_type not in _TOLERATED_READ_ERRORS:
                        violations.append(
                            Violation(
                                index,
                                "unexpected_error",
                                f"apply refused: "
                                f"{response.error_type}: "
                                f"{response.error}",
                            )
                        )
            elif response.ok:
                violations.extend(
                    _check_read(op, response, model, index)
                )
            else:
                if response.error_type not in _TOLERATED_READ_ERRORS:
                    violations.append(
                        Violation(
                            index,
                            "unexpected_error",
                            f"{op.kind} failed: {response.error_type}: "
                            f"{response.error}",
                        )
                    )
                elif response.error_type == "StaleViewError" and (
                    op.kind in ("pinned_access", "pinned_count")
                ):
                    model.drop_pin(op.params["db_version"])
            if violations:
                break
        if not violations:
            # The closing convergence check: a clean restart must land
            # exactly on the model, crash or no crash — this is the
            # pass that catches *silent* lost writes.
            shutdown(core)
            core = boot()
            report.restarts += 1
            violations.extend(
                model.reconcile_restart(
                    core.store.database, core.store.db_version, ops
                )
            )
    finally:
        shutdown(core)
        shutil.rmtree(wal_dir, ignore_errors=True)
    report.violations = violations
    report.ops_survived = (
        violations[0].op_index if violations else report.executed
    )
    report.fault_counters = counters
    if violations:
        report.verdict = "fail"
        # The op stream is a deterministic prefix, so the minimal
        # reproduction is simply the run cut right after the first
        # violating op.
        line = (
            f"repro chaos --seed {seed} "
            f"--ops {violations[0].op_index + 1}"
        )
        if spec is not None and spec != WAL_FAULTS:
            line += f" --faults '{spec}'"
        if quick:
            line += " --quick"
        line += f" --engine {report.engine}"
        report.repro = line
    return report


__all__ = [
    "ChaosReport",
    "WAL_FAULTS",
    "run_chaos",
]
