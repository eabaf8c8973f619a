"""Tests for the versioned JSON session protocol (one codepath)."""

from __future__ import annotations

import json

import pytest

from repro import ProtocolError, connect
from repro.engine import available_engines
from repro.session.protocol import (
    OPS,
    PROTOCOL_VERSION,
    SessionRequest,
    SessionResponse,
    execute,
)

QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"


@pytest.fixture()
def conn():
    return connect(
        {
            "R": {(1, 2), (3, 2), (3, 4)},
            "S": {(2, 7), (2, 9), (4, 1)},
        }
    )


# Sorted by (x, y, z):
ANSWERS = [
    (1, 2, 7),
    (1, 2, 9),
    (3, 2, 7),
    (3, 2, 9),
    (3, 4, 1),
]


class TestRequestWireForm:
    def test_json_round_trip(self):
        request = SessionRequest(
            op="access", order=("x", "y", "z"), indices=(0, -1)
        )
        assert SessionRequest.from_json(request.to_json()) == request

    def test_round_trip_all_fields(self):
        request = SessionRequest(
            op="page",
            query=QUERY,
            order=("x", "y", "z"),
            prefix=("x",),
            page_number=2,
            page_size=10,
        )
        assert SessionRequest.from_json(request.to_json()) == request
        request = SessionRequest(op="rank", answer=(1, "a", 3))
        assert SessionRequest.from_json(request.to_json()) == request

    def test_defaults_omitted_on_the_wire(self):
        data = json.loads(SessionRequest(op="stats").to_json())
        assert data == {"version": PROTOCOL_VERSION, "op": "stats"}

    def test_missing_version_defaults_to_current(self):
        request = SessionRequest.from_json('{"op": "stats"}')
        assert request.version == PROTOCOL_VERSION

    def test_newer_version_rejected(self):
        with pytest.raises(ProtocolError, match="protocol 99"):
            SessionRequest.from_json('{"op": "stats", "version": 99}')

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="frobnicate"):
            SessionRequest(op="frobnicate")
        with pytest.raises(ProtocolError):
            SessionRequest.from_json('{"op": "frobnicate"}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request"):
            SessionRequest.from_json('{"op": "stats", "bogus": 1}')

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            "42",
            '{"op": 7}',
            '{"op": "count", "order": "x,y"}',
            '{"op": "access", "indices": ["0"]}',
            '{"op": "access", "indices": [true]}',
            '{"op": "page", "page_number": "2"}',
            '{"op": "rank", "answer": 3}',
            '{"op": "stats", "version": true}',
            "not json at all",
        ],
    )
    def test_malformed_requests_rejected(self, payload):
        with pytest.raises(ProtocolError):
            SessionRequest.from_json(payload)


class TestResponseWireForm:
    def test_ok_round_trip(self):
        response = SessionResponse(
            op="count", ok=True, result={"count": 5, "order": ["x"]}
        )
        assert (
            SessionResponse.from_json(response.to_json()) == response
        )

    def test_error_round_trip(self):
        response = SessionResponse(op="access", ok=False, error="nope")
        parsed = SessionResponse.from_json(response.to_json())
        assert parsed == response
        assert not json.loads(response.to_json()).get("result")

    def test_malformed_response_rejected(self):
        with pytest.raises(ProtocolError):
            SessionResponse.from_json('{"ok": true}')
        with pytest.raises(ProtocolError):
            SessionResponse.from_json('{"op": "count", "ok": "yes"}')
        with pytest.raises(ProtocolError):
            SessionResponse.from_json(
                '{"op": "count", "ok": true, "version": 99}'
            )
        # A boolean is not a version, exactly as on the request side.
        with pytest.raises(ProtocolError, match="integer"):
            SessionResponse.from_json(
                '{"op": "count", "ok": true, "version": true}'
            )


class TestExecutor:
    def test_count_access_median_rank(self, conn):
        order = ("x", "y", "z")
        response = execute(
            conn,
            SessionRequest(op="count", order=order),
            default_query=QUERY,
        )
        assert response.ok and response.result["count"] == 5
        assert response.result["order"] == ["x", "y", "z"]

        response = execute(
            conn,
            SessionRequest(op="access", order=order, indices=(0, -1)),
            default_query=QUERY,
        )
        assert response.result["answers"] == [[1, 2, 7], [3, 4, 1]]

        response = execute(
            conn,
            SessionRequest(op="median", order=order),
            default_query=QUERY,
        )
        assert tuple(response.result["answer"]) == ANSWERS[2]

        response = execute(
            conn,
            SessionRequest(op="rank", order=order, answer=(3, 2, 9)),
            default_query=QUERY,
        )
        assert response.result["rank"] == 3
        response = execute(
            conn,
            SessionRequest(op="rank", order=order, answer=(9, 9, 9)),
            default_query=QUERY,
        )
        assert response.ok and response.result["rank"] is None

    def test_page_plan_stats_quit(self, conn):
        response = execute(
            conn,
            SessionRequest(
                op="page",
                order=("x", "y", "z"),
                page_number=1,
                page_size=2,
            ),
            default_query=QUERY,
        )
        assert response.result["answers"] == [[3, 2, 7], [3, 2, 9]]

        response = execute(
            conn, SessionRequest(op="plan"), default_query=QUERY
        )
        assert response.ok and response.result["order"]
        assert isinstance(response.result["iota"], str)

        response = execute(
            conn, SessionRequest(op="stats"), default_query=QUERY
        )
        assert response.ok and "requests" in response.result

        response = execute(
            conn, SessionRequest(op="quit"), default_query=QUERY
        )
        assert response.ok and response.result is None

    def test_request_query_overrides_default(self, conn):
        response = execute(
            conn,
            SessionRequest(
                op="count", query="Q(x, y) :- R(x, y)", order=("x", "y")
            ),
            default_query=QUERY,
        )
        assert response.ok and response.result["count"] == 3

    def test_library_errors_become_error_responses(self, conn):
        # Out of bounds, bad order, missing arguments: served, not raised.
        cases = [
            SessionRequest(
                op="access", order=("x", "y", "z"), indices=(99,)
            ),
            SessionRequest(op="access", order=("x", "y", "z")),
            SessionRequest(op="count", order=("x", "nope", "z")),
            SessionRequest(
                op="page", order=("x", "y", "z"), page_number=-1,
                page_size=5,
            ),
            SessionRequest(op="page", order=("x", "y", "z")),
            SessionRequest(op="rank", order=("x", "y", "z")),
        ]
        for request in cases:
            response = execute(conn, request, default_query=QUERY)
            assert not response.ok and response.error
        # ... and the session survives to serve the next request.
        response = execute(
            conn,
            SessionRequest(op="count", order=("x", "y", "z")),
            default_query=QUERY,
        )
        assert response.ok

    def test_no_query_anywhere_is_an_error(self, conn):
        response = execute(conn, SessionRequest(op="count"))
        assert not response.ok and "query" in response.error

    def test_incomparable_domain_is_served_as_an_error(self):
        """A mixed int/str column breaks the total-order assumption of
        the counting structures; the serving loop must answer with an
        error response, not die on the TypeError."""
        mixed = connect({"R": {(1, 2), ("foo", "bar")}})
        request = SessionRequest(op="count", order=("x", "y"))
        response = execute(
            mixed, request, default_query="Q(x, y) :- R(x, y)"
        )
        assert not response.ok
        assert "ordered" in response.error

    def test_every_op_is_covered(self, conn):
        """No op constant without an executor path."""
        for op in sorted(OPS):
            request = SessionRequest(
                op=op,
                order=("x", "y", "z"),
                indices=(0,),
                page_number=0,
                page_size=1,
                answer=(1, 2, 7),
                relation="R",
                rows=((1, 2),),
                inserts={"R": ((1, 2),)},
            )
            response = execute(conn, request, default_query=QUERY)
            assert response.ok, (op, response.error)

    def test_results_are_json_serializable(self, conn):
        for op in sorted(OPS):
            request = SessionRequest(
                op=op,
                order=("x", "y", "z"),
                indices=(0, -1),
                page_number=0,
                page_size=2,
                answer=(1, 2, 7),
                relation="R",
                rows=((1, 2),),
            )
            response = execute(conn, request, default_query=QUERY)
            parsed = SessionResponse.from_json(response.to_json())
            assert parsed.ok == response.ok


@pytest.mark.parametrize("engine", available_engines())
def test_version_ahead_of_the_head_says_so(engine):
    """A read pinned past the head (a client that outlived a restart
    without a WAL) is stale, but not evicted: the error says which."""
    conn = connect(
        {"R": {(1, 2), (3, 2), (3, 4)}, "S": {(2, 7)}}, engine=engine
    )
    request = SessionRequest.from_json(
        json.dumps({"op": "count", "db_version": 10**30})
    )
    response = execute(conn, request, default_query=QUERY)
    assert not response.ok
    assert response.error_type == "StaleViewError"
    assert "ahead of the head (0)" in response.error
    assert "evicted" not in response.error


class TestPinnedReadRace:
    """A read carrying ``db_version`` is served at exactly that version,
    even when an ``apply`` lands between the request's arrival and its
    resolution."""

    @staticmethod
    def apply_before_resolving(conn, monkeypatch, rows):
        """Make the next resolution run one ``insert`` on ``R`` first —
        the interleaving a concurrent writer can produce."""
        session = conn.session
        resolve = session.access_versioned
        fired = []

        def interleaved(*args, **kwargs):
            if not fired:
                fired.append(conn.insert("R", rows))
            return resolve(*args, **kwargs)

        monkeypatch.setattr(session, "access_versioned", interleaved)
        return fired

    @pytest.mark.parametrize("op", ["access", "count", "page", "rank"])
    def test_apply_mid_request_does_not_move_a_pinned_read(
        self, conn, monkeypatch, op
    ):
        version = conn.db_version
        request = SessionRequest(
            op=op,
            query=QUERY,
            order=("x", "y", "z"),
            indices=(0, -1),
            page_number=0,
            page_size=2,
            answer=(1, 2, 7),
            db_version=version,
        )
        # (0, 2) sorts first and joins S twice: index 0, the count,
        # the first page and the rank of (1, 2, 7) all move at v + 1.
        fired = self.apply_before_resolving(conn, monkeypatch, [(0, 2)])
        response = execute(conn, request)
        assert fired == [version + 1]  # the write really landed
        assert response.ok, response.error
        result = response.result
        assert result["db_version"] == version
        if op == "access":
            assert result["answers"] == [list(ANSWERS[0]), list(ANSWERS[-1])]
        elif op == "count":
            assert result["count"] == len(ANSWERS)
        elif op == "page":
            assert result["answers"] == [list(row) for row in ANSWERS[:2]]
        else:
            assert result["rank"] == 0
        # The head moved on: an unpinned read sees the insert.
        head = execute(
            conn,
            SessionRequest(
                op="access", query=QUERY, order=("x", "y", "z"),
                indices=(0,),
            ),
        )
        assert head.result["db_version"] == version + 1
        assert head.result["answers"] == [[0, 2, 7]]
