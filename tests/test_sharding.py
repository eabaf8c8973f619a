"""Shard-by-code-range execution (:mod:`repro.session.sharding`).

The differential law of the shard merge: for every shardable request,
the merged response dict is **bit-identical** to what the unsharded
protocol executor returns over the whole database — same result
values, same error types, same error messages — under both engines.
Divergences exist only where sharding is read-only by construction
(mutations) or structurally constrained (orders must start with the
partitioned variable), and those are pinned too.

``TestChaosDegradation`` checks the transport faults a remote reader
can meet: the ``client.*`` fault points of
:class:`~repro.server.HTTPConnection` against a live
:class:`~repro.server.http.ReproServer`.
"""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.chaos import faults
from repro.errors import ProtocolError, QueryError, ReproError
from repro.facade import connect
from repro.server.http import ReproServer
from repro.session.protocol import SessionRequest, execute
from repro.session.sharding import (
    ShardedExecutor,
    local_shard_executor,
    plan_shards,
    shard_databases,
)

QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(i, i % 7) for i in range(80)},
    "S": {(j, j * 2) for j in range(7)},
}
ORDER = ("x", "y", "z")


def request(op, **kwargs):
    kwargs.setdefault("query", QUERY)
    kwargs.setdefault("order", ORDER)
    return SessionRequest(op=op, **kwargs)


@pytest.fixture(params=["python", "numpy"])
def engine(request):
    return request.param


@pytest.fixture()
def executor(engine):
    database = Database(RELATIONS)
    plan = plan_shards(database, QUERY, shards=3, variable="x")
    databases = shard_databases(database, plan)
    return ShardedExecutor(
        plan, local_shard_executor(databases, engine)
    )


@pytest.fixture()
def reference(engine):
    connection = connect(RELATIONS, engine=engine)
    return lambda req: execute(connection, req).to_dict()


class TestPlan:
    def test_cuts_are_monotone_and_route_consistently(self):
        database = Database(RELATIONS)
        plan = plan_shards(database, QUERY, shards=4, variable="x")
        assert plan.relation == "R"  # the largest candidate
        assert plan.column == 0
        assert list(plan.cuts) == sorted(plan.cuts)
        for value in range(-1, 85):
            shard = plan.shard_of(value)
            assert 0 <= shard < plan.shards
            if shard > 0:
                assert value >= plan.cuts[shard - 1]
            if shard < len(plan.cuts):
                assert value < plan.cuts[shard]

    def test_chunks_are_balanced(self):
        database = Database(RELATIONS)
        plan = plan_shards(database, QUERY, shards=4, variable="x")
        sizes = [
            len(mapping["R"])
            for mapping in shard_databases(database, plan)
        ]
        assert sum(sizes) == len(RELATIONS["R"])
        assert max(sizes) - min(sizes) <= 1  # 80 distinct x values

    def test_shard_databases_partition_only_the_planned_relation(self):
        database = Database(RELATIONS)
        plan = plan_shards(database, QUERY, shards=3, variable="x")
        mappings = shard_databases(database, plan)
        assert len(mappings) == plan.shards
        union = set().union(*(m["R"] for m in mappings))
        assert union == RELATIONS["R"]
        for a, b in zip(mappings, mappings[1:]):
            assert not (a["R"] & b["R"])
        for mapping in mappings:
            assert mapping["S"] == RELATIONS["S"]

    def test_unbound_variable_is_rejected(self):
        database = Database(RELATIONS)
        with pytest.raises(QueryError):
            plan_shards(database, QUERY, shards=2, variable="w")
        with pytest.raises(QueryError):
            plan_shards(database, QUERY, shards=0, variable="x")

    def test_self_join_relations_are_not_candidates(self):
        # Filtering one occurrence of R would filter the other too.
        database = Database({"R": {(1, 2), (2, 1), (2, 3)}})
        with pytest.raises(QueryError):
            plan_shards(
                database,
                "Q(x, y, z) :- R(x, y), R(y, z)",
                shards=2,
                variable="x",
            )

    def test_explicit_relation_filter(self):
        database = Database(RELATIONS)
        plan = plan_shards(
            database, QUERY, shards=2, variable="y", relation="S"
        )
        assert plan.relation == "S"
        with pytest.raises(QueryError):
            plan_shards(
                database, QUERY, shards=2, variable="x", relation="S"
            )

    def test_fewer_distinct_values_than_shards(self):
        database = Database(RELATIONS)
        plan = plan_shards(database, QUERY, shards=3, variable="y",
                           relation="S")
        assert plan.shards == 3
        assert len(plan.cuts) <= 2


class TestDifferentialLaw:
    """merged(request) == unsharded(request), bit for bit."""

    CASES = [
        request("count"),
        request("access", indices=(0,)),
        request("access", indices=(0, 5, 17, 105, -1, -106)),
        request("access", indices=(106,)),       # OutOfBoundsError
        request("access", indices=(-107,)),      # OutOfBoundsError
        request("access", indices=()),           # ProtocolError
        request("median"),
        request("page", page_number=0, page_size=7),
        request("page", page_number=15, page_size=7),  # short tail
        request("page", page_number=99, page_size=7),  # past the end
        request("page", page_number=-1, page_size=7),  # OutOfBounds
        request("page", page_number=0, page_size=0),   # OutOfBounds
        request("page", page_number=0, page_size=None),  # Protocol
        request("rank", answer=(3, 3, 6)),
        request("rank", answer=(999, 0, 0)),     # absent -> None
        request("rank"),                         # ProtocolError
        request(
            "rank",
            answers=((0, 0, 0), (79, 2, 4), (5, 5, 10), (42, 42, 42)),
        ),
        request("quit"),
    ]

    @pytest.mark.parametrize(
        "case", CASES, ids=lambda c: f"{c.op}"
    )
    def test_bit_identical(self, case, executor, reference):
        assert executor.execute(case) == reference(case)

    def test_empty_join_is_bit_identical(self, engine):
        empty = {"R": {(1, 2), (3, 4)}, "S": {(99, 0)}}
        database = Database(empty)
        plan = plan_shards(database, QUERY, shards=2, variable="x")
        executor = ShardedExecutor(
            plan,
            local_shard_executor(shard_databases(database, plan),
                                 engine),
        )
        connection = connect(empty, engine=engine)
        for case in (
            request("count"),
            request("median"),                   # quantiles undefined
            request("access", indices=(0,)),     # OutOfBoundsError
            request("page", page_number=0, page_size=5),
            request("rank", answer=(1, 2, 4)),
        ):
            assert executor.execute(case) == execute(
                connection, case
            ).to_dict()


@pytest.fixture(scope="module", params=["python", "numpy"])
def served(request):
    """One live server per engine, shared by the degradation cases."""
    server = ReproServer(
        RELATIONS, engine=request.param, workers=2, default_query=QUERY
    ).start()
    yield server, connect(RELATIONS, engine=request.param)
    server.shutdown()


@pytest.fixture()
def remote(served):
    """A fresh client and a prepared view: the health ping and the
    prepare ride the keep-alive pool *before* any plan is armed."""
    server, _local = served
    conn = connect(server.url)
    view = conn.prepare(QUERY, order=list(ORDER))
    yield conn, view
    conn.close()


class TestChaosDegradation:
    """Injected transport faults (:mod:`repro.chaos`) against a live
    server: every failure mode must surface as a *structured* repro
    error — bounded and typed — never a hang, and never a poisoned
    keep-alive pool."""

    @staticmethod
    def assert_unreachable(view, spec: str) -> None:
        with faults.armed(spec):
            with pytest.raises(ReproError, match="cannot reach") as caught:
                view[0]
        assert type(caught.value) is ReproError

    def test_injected_timeout_is_a_structured_error(self, remote):
        _conn, view = remote
        self.assert_unreachable(view, "client.timeout:once")

    def test_injected_disconnect_is_a_structured_error(self, remote):
        _conn, view = remote
        self.assert_unreachable(view, "client.disconnect:once")

    def test_unparseable_5xx_is_a_protocol_error(self, remote):
        _conn, view = remote
        with faults.armed("client.http_500:once"):
            with pytest.raises(ProtocolError):
                view[0]

    def test_every_request_failing_still_terminates(self, remote):
        """p=1 fails every request, every time: the client must keep
        raising structured errors, not wedge."""
        _conn, view = remote
        with faults.armed("seed=1,client.timeout:p=1"):
            for _ in range(3):
                with pytest.raises(ReproError, match="cannot reach"):
                    view[0]

    def test_pool_is_reusable_once_faults_clear(self, served, remote):
        """Faults fire before a socket is checked out, so the next read
        after disarm rides the parked socket and answers correctly."""
        _server, local = served
        conn, view = remote
        opened = conn._pool.opened
        with faults.armed("client.timeout:once"):
            with pytest.raises(ReproError):
                view[0]
        expected = local.prepare(QUERY, order=list(ORDER))
        assert tuple(view[0]) == tuple(expected[0])
        assert conn._pool.opened == opened


class TestDivergencesByDesign:
    def test_mutations_are_refused(self, executor):
        reply = executor.execute(
            request("insert", relation="R", rows=((9, 9),))
        )
        assert reply["ok"] is False
        assert reply["error_type"] == "ReadOnlyError"

    def test_orders_must_start_with_the_partitioned_variable(
        self, executor, reference
    ):
        # Unsharded happily serves a y-leading order; sharded refuses
        # (the partition only aligns with x-leading answer arrays).
        wrong = request("count", order=("y", "x", "z"))
        assert reference(wrong)["ok"] is True
        reply = executor.execute(wrong)
        assert reply["ok"] is False
        assert reply["error_type"] == "OrderError"

    def test_stats_fans_out(self, executor):
        reply = executor.execute(request("stats"))
        assert reply["ok"] is True
        sharded = reply["result"]["sharded"]
        assert sharded["relation"] == "R"
        assert sharded["shards"] == len(reply["result"]["shards"])

    def test_plan_and_db_version_pass_through(self, executor):
        for op in ("plan", "db_version"):
            reply = executor.execute(request(op))
            assert reply["ok"] is True, reply
            assert reply["op"] == op

    def test_default_query_fill_in(self, engine):
        database = Database(RELATIONS)
        plan = plan_shards(database, QUERY, shards=2, variable="x")
        executor = ShardedExecutor(
            plan,
            local_shard_executor(shard_databases(database, plan),
                                 engine),
            default_query=QUERY,
        )
        reply = executor.execute(
            SessionRequest(op="count", order=ORDER)
        )
        assert reply["ok"] is True

    def test_unknown_protocol_version_is_refused(self, executor):
        reply = executor.execute(request("count", version=99))
        assert reply["ok"] is False
        assert reply["error_type"] == "ProtocolError"
