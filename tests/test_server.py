"""The HTTP serving layer: transport behavior, the facade client, and
the concurrency acceptance test of the ``repro serve`` PR.

CI runs this module under both engines.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from email.utils import parsedate_to_datetime

import pytest

import repro
from repro import connect
from repro.core.decomposition import DisruptionFreeDecomposition
from repro.errors import (
    NotAnAnswerError,
    OutOfBoundsError,
    OverloadedError,
    ProtocolError,
    ReproError,
)
from repro.query.parser import parse_query
from repro.query.variable_order import VariableOrder
from repro.engine import available_engines
from repro.server import HTTPConnection, ReproServer
from repro.server.aio import AsyncReproServer
from repro.server.client import normalize_base_url
from repro.server.http import MAX_BODY_BYTES, _Handler, error_body
from repro.session.protocol import PROTOCOL_VERSION
from tests.conftest import read_reply

QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(1, 2), (3, 2), (3, 4)},
    "S": {(2, 7), (2, 9), (4, 1)},
}


def http_get(url: str):
    """(status, parsed JSON body) for a GET, errors included."""
    try:
        with urllib.request.urlopen(url, timeout=10) as reply:
            return reply.status, json.loads(reply.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def http_post(url: str, body: bytes, headers: dict | None = None):
    """(status, parsed JSON body) for a raw POST, errors included."""
    request = urllib.request.Request(
        url, data=body, method="POST", headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.loads(reply.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def post_op(server: ReproServer, payload: dict):
    return http_post(
        server.url + "/v1/session", json.dumps(payload).encode()
    )


def raw_request(
    method: str, path: str, body: bytes = b"", headers: dict | None = None
) -> bytes:
    """One HTTP/1.1 request as wire bytes; a POST carries its body's
    Content-Length unless ``headers`` overrides it."""
    fields = {"Host": "t"}
    if method == "POST":
        fields["Content-Length"] = str(len(body))
    fields.update(headers or {})
    head = [f"{method} {path} HTTP/1.1"]
    head += [f"{name}: {value}" for name, value in fields.items()]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def raw_op(payload: dict) -> bytes:
    return raw_request("POST", "/v1/session", json.dumps(payload).encode())


def exchange(server, request: bytes, then_closed: bool = False):
    """Send ``request`` on a fresh socket and read one reply; with
    ``then_closed`` also assert the server closed the connection."""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as sock:
        sock.sendall(request)
        stream = sock.makefile("rb")
        reply = read_reply(stream)
        if then_closed:
            assert stream.read() == b"", "connection was kept open"
    return reply


def status_of(reply) -> int:
    return int(reply[0].split()[1])


def overloaded(request):
    raise OverloadedError("every worker queue is full")


#: Every reply path of the threaded front: name -> (request, status).
#: Served by a read-only server (for the 403); the 503 row runs with
#: ``execute`` patched to refuse admission.
REPLY_PATHS = {
    "200-access": (
        raw_op({"op": "access", "query": QUERY, "indices": [0]}),
        200,
    ),
    "400-bad-json": (raw_request("POST", "/v1/session", b"{not json"), 400),
    "403-read-only": (
        raw_op({"op": "insert", "relation": "R", "rows": [[9, 9]]}),
        403,
    ),
    "404-get": (raw_request("GET", "/nope"), 404),
    "404-post": (
        raw_request("POST", "/v2/session", json.dumps({"op": "stats"}).encode()),
        404,
    ),
    "405": (raw_request("GET", "/v1/session"), 405),
    "411": (
        raw_request("POST", "/v1/session", headers={"Content-Length": "-1"}),
        411,
    ),
    "413": (
        raw_request("POST", "/v1/session", b"x" * (MAX_BODY_BYTES + 1)),
        413,
    ),
    "503": (raw_op({"op": "count", "query": QUERY}), 503),
    "healthz": (raw_request("GET", "/healthz"), 200),
    "stats": (raw_request("GET", "/stats"), 200),
}


class _RecordingWriter:
    """A handler ``wfile`` that records every write it passes on."""

    def __init__(self, raw, writes: list[bytes]):
        self._raw = raw
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture()
def reply_writes(monkeypatch):
    """Every ``wfile.write`` the threaded front makes, in order."""
    writes: list[bytes] = []
    real_setup = _Handler.setup

    def recording_setup(handler):
        real_setup(handler)
        handler.wfile = _RecordingWriter(handler.wfile, writes)

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    return writes


@pytest.fixture()
def server():
    with ReproServer(RELATIONS, workers=4) as running:
        yield running


@pytest.fixture()
def local():
    return connect(RELATIONS)


class TestTransport:
    def test_healthz(self, server):
        status, body = http_get(server.url + "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["version"] == repro.__version__
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["workers"] == 4

    def test_stats_endpoint_shape(self, server):
        post_op(server, {"op": "count", "query": QUERY})
        status, body = http_get(server.url + "/stats")
        assert status == 200
        assert body["server"]["requests"] == 1
        assert body["server"]["ops"] == {"count": 1}
        assert body["store"]["database_encodes"] == 1
        # One store serves every worker thread: its counters are the
        # totals, and there is no per-worker breakdown.
        assert body["workers"]["count"] == 4
        assert body["workers"]["totals"]["requests"] == 1
        assert "per_worker" not in body["workers"]
        assert body["dispatch"] == {
            "workers": 4,
            "queue_capacity": 4 * 16,
            "admitted": 0,
            "rejections": 0,
        }
        # One counter view: after a mixed stream, the ``stats`` op,
        # ``Connection.stats()`` and ``GET /stats`` all read the
        # store's counters, on both engines.
        for engine in available_engines():
            self.check_one_counter_view(engine)

    @staticmethod
    def check_one_counter_view(engine):
        read = {"query": QUERY, "order": ["x", "y", "z"]}
        stream = [
            {"op": "count", **read},
            {"op": "access", "indices": [0, -1], **read},  # warm
            {"op": "plan", "query": QUERY},
            {"op": "count", "query": QUERY},  # planned
            {"op": "insert", "relation": "R", "rows": [[0, 2]]},
            {"op": "rank", "answer": [0, 2, 7], **read},
            {"op": "count", "db_version": 0, **read},  # pinned
            {"op": "count", "query": QUERY, "order": ["y", "x", "z"]},
            {"op": "count", "query": "Q(x, y) :- R(x, y)"},  # evicts
        ]
        with ReproServer(
            RELATIONS, engine=engine, workers=2, capacity=2
        ) as server:
            for payload in stream:
                status, reply = post_op(server, payload)
                assert status == 200 and reply["ok"], reply
            _, reply = post_op(server, {"op": "stats"})
            op = reply["result"]
            status, body = http_get(server.url + "/stats")
            local = server.core.connection.stats()
        assert status == 200
        store = body["store"]
        assert "sessions" not in store
        assert store["access"]["evictions"] >= 1
        totals = body["workers"]["totals"]
        assert set(totals) == set(op) - {"store"}
        for key in totals:
            assert totals[key] == store[key], key
            assert op[key] == store[key], key
            assert local[key] == store[key], key
        assert op["store"]["requests"] == store["requests"] == 7

    def test_stats_op_sees_every_worker(self, monkeypatch):
        """Reads on both run slots at once, then the ``stats`` op: it
        reports the same request count as ``GET /stats``, whichever
        slot it lands on."""
        import repro.server.http as http_module

        real = http_module.execute
        both_running = threading.Barrier(2, timeout=10)

        def rendezvous(connection, request, **kwargs):
            if request.op == "access":
                both_running.wait()  # two reads in flight at once
            return real(connection, request, **kwargs)

        monkeypatch.setattr(http_module, "execute", rendezvous)
        with ReproServer(RELATIONS, workers=2) as server:
            read = {
                "op": "access", "query": QUERY,
                "order": ["x", "y", "z"], "indices": [0],
            }
            replies: list = []
            threads = [
                threading.Thread(
                    target=lambda: replies.append(post_op(server, read))
                )
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert [status for status, _ in replies] == [200, 200]
            assert all(body["ok"] for _, body in replies)
            status, body = post_op(server, {"op": "stats"})
            assert status == 200
            _status, stats = http_get(server.url + "/stats")
            assert body["result"]["requests"] == 2
            assert (
                body["result"]["requests"]
                == stats["workers"]["totals"]["requests"]
            )

    def test_malformed_json_is_structured_400(self, server):
        status, body = http_post(
            server.url + "/v1/session", b"{not json"
        )
        assert status == 400
        assert body["ok"] is False
        assert "bad JSON request" in body["error"]

    def test_unknown_request_field_is_400(self, server):
        status, body = post_op(
            server, {"op": "count", "frobnicate": 1}
        )
        assert status == 400
        assert body["ok"] is False and "frobnicate" in body["error"]

    def test_newer_protocol_version_is_400(self, server):
        status, body = post_op(server, {"op": "count", "version": 99})
        assert status == 400
        assert "protocol 99" in body["error"]

    def test_non_utf8_body_is_400(self, server):
        status, body = http_post(
            server.url + "/v1/session", b"\xff\xfe{}"
        )
        assert status == 400
        assert "UTF-8" in body["error"]

    def test_unknown_path_is_404(self, server):
        status, body = http_get(server.url + "/nope")
        assert status == 404
        assert body["ok"] is False and "/v1/session" in body["error"]
        status, _ = http_post(server.url + "/v2/session", b"{}")
        assert status == 404

    def test_get_on_session_route_is_405(self, server):
        status, body = http_get(server.url + "/v1/session")
        assert status == 405
        assert "POST" in body["error"]

    def test_negative_content_length_is_411_not_a_hang(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=5
        )
        conn.putrequest("POST", "/v1/session")
        conn.putheader("Content-Length", "-1")
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 411
        assert body["ok"] is False
        conn.close()

    def test_connect_to_non_repro_server_fails_cleanly(self):
        from http.server import (
            BaseHTTPRequestHandler,
            ThreadingHTTPServer,
        )

        class NotRepro(BaseHTTPRequestHandler):
            def do_GET(self):
                page = b"<html>hello</html>"
                self.send_response(200)
                self.send_header("Content-Length", str(len(page)))
                self.end_headers()
                self.wfile.write(page)

            def log_message(self, *args):
                pass

        other = ThreadingHTTPServer(("127.0.0.1", 0), NotRepro)
        thread = threading.Thread(
            target=other.serve_forever, daemon=True
        )
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="really a repro"):
                connect(
                    f"http://127.0.0.1:{other.server_address[1]}"
                )
        finally:
            other.shutdown()

    def test_oversized_body_is_413(self, server):
        from repro.server.http import MAX_BODY_BYTES

        status, body = http_post(
            server.url + "/v1/session",
            b'{"op": "count", "query": "' + b"x" * MAX_BODY_BYTES,
        )
        assert status == 413
        assert body["ok"] is False

    def test_library_errors_are_200_with_ok_false(self, server):
        # Executed-but-failed requests use the protocol's own error
        # channel — the transport worked fine.
        status, body = post_op(
            server,
            {"op": "access", "query": QUERY, "indices": [999]},
        )
        assert status == 200
        assert body["ok"] is False
        assert body["error_type"] == "OutOfBoundsError"

    def test_missing_query_without_default(self, server):
        status, body = post_op(server, {"op": "count"})
        assert status == 200
        assert body["ok"] is False and "needs a query" in body["error"]

    def test_default_query_binding(self):
        with ReproServer(
            RELATIONS, workers=1, default_query=QUERY
        ) as server:
            status, body = post_op(server, {"op": "count"})
            assert status == 200
            assert body["result"]["count"] == 5

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ReproServer(RELATIONS, workers=0)

    def test_invalid_default_query_fails_at_startup(self):
        from repro.errors import ReproError as Error

        with pytest.raises(Error):
            ReproServer(
                RELATIONS, default_query="Q(a, b) :- Missing(a, b)"
            )

    def test_import_does_not_load_multiprocessing(self):
        """One process serves: nothing under ``repro.server`` may pull
        in :mod:`multiprocessing` (checked in a fresh interpreter)."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.server; "
                "print('multiprocessing' in sys.modules)",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestServingOps:
    """Every protocol op over HTTP answers exactly like a local view."""

    def test_ops_round_trip(self, server, local):
        view = local.prepare(QUERY, order=["x", "y", "z"])
        base = {"query": QUERY, "order": ["x", "y", "z"]}

        _, count = post_op(server, dict(base, op="count"))
        assert count["result"]["count"] == len(view)

        _, access = post_op(
            server, dict(base, op="access", indices=[0, 2, -1])
        )
        assert access["result"]["answers"] == [
            list(view[0]), list(view[2]), list(view[-1])
        ]

        _, median = post_op(server, dict(base, op="median"))
        assert tuple(median["result"]["answer"]) == view.median()

        _, page = post_op(
            server, dict(base, op="page", page_number=1, page_size=2)
        )
        assert [tuple(a) for a in page["result"]["answers"]] == (
            view.page(1, 2)
        )

        _, rank = post_op(
            server, dict(base, op="rank", answer=list(view[3]))
        )
        assert rank["result"]["rank"] == 3

        _, plan = post_op(
            server, {"op": "plan", "query": QUERY}
        )
        assert plan["result"]["order"] == list(local.plan(QUERY).order)

        _, stats = post_op(server, {"op": "stats"})
        assert stats["ok"] and "store" in stats["result"]

        _, quit_ = post_op(server, {"op": "quit"})
        assert quit_["ok"] and quit_["result"] is None


class TestHTTPConnectionFacade:
    """repro.connect(url): the remote view obeys the local view's laws."""

    def test_connect_dispatches_on_url(self, server):
        conn = connect(server.url)
        assert isinstance(conn, HTTPConnection)
        assert conn.engine_name == server.store.engine.name

    def test_connect_url_rejects_local_knobs(self, server):
        with pytest.raises(ReproError):
            connect(server.url, engine="numpy")

    def test_connect_bad_address_fails_fast(self):
        with pytest.raises(ReproError):
            HTTPConnection("http://127.0.0.1:9", timeout=2)

    def test_normalize_base_url(self):
        assert (
            normalize_base_url("localhost:8080/")
            == "http://localhost:8080"
        )

    def test_remote_view_matches_local(self, server, local):
        remote = connect(server.url).prepare(
            QUERY, order=["x", "y", "z"]
        )
        view = local.prepare(QUERY, order=["x", "y", "z"])
        assert len(remote) == len(view)
        assert remote.order == tuple(view.order)
        assert remote[0] == view[0] and remote[-1] == view[-1]
        assert list(remote) == list(view)
        assert list(reversed(remote)) == list(reversed(view))
        assert remote.to_list() == view.to_list()
        assert remote.median() == view.median()
        assert remote.page(0, 2) == view.page(0, 2)
        assert remote.boxplot() == view.boxplot()
        assert remote.sample(3, seed=7) == view.sample(3, seed=7)
        assert remote.quantile(0.5) == view.quantile(0.5)

    def test_remote_slices_are_lazy_windows(self, server, local):
        remote = connect(server.url).prepare(
            QUERY, order=["x", "y", "z"]
        )
        view = local.prepare(QUERY, order=["x", "y", "z"])
        assert list(remote[1:4]) == list(view[1:4])
        assert list(remote[::-1]) == list(view[::-1])
        assert list(remote[1:4][::2]) == list(view[1:4][::2])
        assert len(remote[2:]) == len(view[2:])

    def test_remote_inverse_access_laws(self, server, local):
        remote = connect(server.url).prepare(
            QUERY, order=["x", "y", "z"]
        )
        view = local.prepare(QUERY, order=["x", "y", "z"])
        for answer in view:
            assert remote.rank(answer) == view.rank(answer)
            assert remote[remote.rank(answer)] == answer
            assert answer in remote
            assert remote.index(answer) == view.index(answer)
        assert (9, 9, 9) not in remote
        assert remote.ranks([view[0], (9, 9, 9)]) == [0, None]
        with pytest.raises(NotAnAnswerError):
            remote.rank((9, 9, 9))
        # An answer outside a sliced window is not *in* that window.
        window = remote[1:3]
        with pytest.raises(NotAnAnswerError):
            window.rank(view[0])

    def test_large_batches_are_chunked_under_the_body_cap(
        self, server, local, monkeypatch
    ):
        """tuples_at over more indices than one request carries splits
        into ITER_CHUNK-sized ops (regression: one giant body tripped
        the server's 413 cap)."""
        from repro.server.client import RemoteAnswerView

        monkeypatch.setattr(RemoteAnswerView, "ITER_CHUNK", 2)
        remote = connect(server.url).prepare(
            QUERY, order=["x", "y", "z"]
        )
        view = local.prepare(QUERY, order=["x", "y", "z"])
        requests_before = connect(server.url).stats()["server"][
            "requests"
        ]
        assert remote.tuples_at(range(5)) == view.tuples_at(range(5))
        requests_after = connect(server.url).stats()["server"][
            "requests"
        ]
        assert requests_after - requests_before == 3  # ceil(5/2) ops
        assert remote.sample(5, seed=3) == view.sample(5, seed=3)

    def test_remote_bounds_checked_client_side(self, server):
        remote = connect(server.url).prepare(
            QUERY, order=["x", "y", "z"]
        )
        before = remote._connection.stats()["server"]["requests"]
        with pytest.raises(OutOfBoundsError):
            remote[99]
        with pytest.raises(OutOfBoundsError):
            remote.tuples_at([0, 99])
        after = remote._connection.stats()["server"]["requests"]
        assert after == before  # no round-trip was spent on them

    def test_remote_errors_replay_local_exception_types(self, server):
        conn = connect(server.url)
        with pytest.raises(ProtocolError):
            conn.prepare(QUERY, order=None, prefix=None)._connection \
                ._call("access", query=QUERY)  # access without indices
        remote = conn.prepare(QUERY, order=["x", "y", "z"])
        with pytest.raises(OutOfBoundsError):
            remote.page(-1, 2)

    def test_planned_remote_prepare_pins_served_order(self, server):
        conn = connect(server.url)
        remote = conn.prepare(QUERY)  # advisor-chosen
        assert list(remote.order) == list(
            tuple(conn.plan(QUERY)["order"])
        )
        assert len(remote) == 5

    def test_closed_connection_refuses_requests(self, server):
        conn = connect(server.url)
        with conn:
            pass
        assert conn.closed
        with pytest.raises(ReproError):
            conn.prepare(QUERY, order=["x", "y", "z"])

    def test_pooled_sockets_set_tcp_nodelay(self, server):
        # http.client sends a request's head and body in two send()s;
        # its connect() sets TCP_NODELAY, so the second never waits on
        # Nagle.  The pool must keep using a connect() that does.
        conn = connect(server.url)
        (pooled,) = conn._pool._idle  # parked by the /healthz ping
        assert pooled.sock.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        ) == 1
        conn.close()


class TestConcurrentServing:
    """The acceptance test: N concurrent HTTP clients, different
    orders, answers identical to a local Connection — database encoded
    once and two *distinct* decompositions preprocessed concurrently
    (per-artifact locks, not one global lock)."""

    ORDER_A = ["x", "y", "z"]
    ORDER_B = ["z", "y", "x"]

    def test_orders_induce_distinct_decompositions(self):
        query = parse_query(QUERY)
        key_a = DisruptionFreeDecomposition(
            query, VariableOrder(self.ORDER_A)
        ).cache_key()
        key_b = DisruptionFreeDecomposition(
            query, VariableOrder(self.ORDER_B)
        ).cache_key()
        assert key_a != key_b  # otherwise the test below proves nothing

    def test_concurrent_clients_distinct_decompositions(
        self, monkeypatch, local
    ):
        import repro.session.artifacts as session_module

        real = session_module.Preprocessing
        barrier = threading.Barrier(2, timeout=20)
        served_database = []  # set once the server exists

        class RendezvousPreprocessing(real):
            """Cold materializations on the *served* database must
            overlap: both builders reach the barrier inside their
            per-artifact build section.  A global build lock would
            serialize them and trip the barrier timeout, failing the
            test.  (Scoped to the server's database so the local
            reference connection is unaffected.)"""

            def __init__(self, query, order, database, **kwargs):
                if (
                    kwargs.get("bag_tables") is None
                    and served_database
                    and database is served_database[0]
                ):
                    barrier.wait()
                super().__init__(query, order, database, **kwargs)

        monkeypatch.setattr(
            session_module, "Preprocessing", RendezvousPreprocessing
        )

        with ReproServer(RELATIONS, workers=4) as server:
            served_database.append(server.store.database)
            results: dict[str, object] = {}
            errors: list[BaseException] = []

            def cold_client(name: str, order: list[str]) -> None:
                try:
                    results[name] = post_op(
                        server,
                        {
                            "op": "access",
                            "query": QUERY,
                            "order": order,
                            "indices": [0, -1],
                        },
                    )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(
                    target=cold_client, args=(name, order)
                )
                for name, order in (
                    ("a", self.ORDER_A),
                    ("b", self.ORDER_B),
                )
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            for name, order in (
                ("a", self.ORDER_A),
                ("b", self.ORDER_B),
            ):
                status, body = results[name]
                assert status == 200 and body["ok"], body
                view = local.prepare(QUERY, order=order)
                assert body["result"]["answers"] == [
                    list(view[0]), list(view[-1])
                ]

            # Now the fan-out: more clients than workers, mixed ops
            # across both (warm) orders, all answers law-checked
            # against the local connection.
            checks: list[tuple] = []

            def client(index: int) -> None:
                try:
                    order = (
                        self.ORDER_A if index % 2 == 0 else self.ORDER_B
                    )
                    view = local.prepare(QUERY, order=order)
                    base = {"query": QUERY, "order": order}
                    status, body = post_op(
                        server,
                        dict(base, op="access", indices=[index % 5]),
                    )
                    checks.append(
                        (
                            body["result"]["answers"],
                            [list(view[index % 5])],
                        )
                    )
                    status, body = post_op(
                        server, dict(base, op="count")
                    )
                    checks.append(
                        (body["result"]["count"], len(view))
                    )
                    status, body = post_op(
                        server,
                        dict(
                            base,
                            op="rank",
                            answer=list(view[index % 5]),
                        ),
                    )
                    checks.append(
                        (body["result"]["rank"], index % 5)
                    )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            fleet = [
                threading.Thread(target=client, args=(index,))
                for index in range(8)
            ]
            for thread in fleet:
                thread.start()
            for thread in fleet:
                thread.join(timeout=30)
            assert not errors
            assert len(checks) == 24
            for got, expected in checks:
                assert got == expected

            stats = server.stats()
            # One dictionary encoding for the whole fleet ...
            assert stats["store"]["database_encodes"] == 1
            # ... two decompositions actually preprocessed, in flight
            # at the same time (per-artifact locks, not one big lock).
            assert stats["store"]["build_concurrency_peak"] >= 2
            assert (
                stats["store"]["preprocessing"]["misses"] >= 2
            )
            # And the transport saw every request.
            assert stats["server"]["requests"] == 2 + 24
            # Every view-serving request checked a worker session out
            # (26 POSTs, 24 of them prepared a view).
            assert stats["workers"]["totals"]["requests"] >= 24

    def test_racing_same_artifact_builds_once_over_http(self):
        """The dual guarantee: many clients, one order — exactly one
        preprocessing pass, everyone gets answers."""
        with ReproServer(RELATIONS, workers=4) as server:
            errors: list[BaseException] = []

            def client() -> None:
                try:
                    status, body = post_op(
                        server,
                        {
                            "op": "count",
                            "query": QUERY,
                            "order": self.ORDER_A,
                        },
                    )
                    assert status == 200 and body["ok"], body
                    assert body["result"]["count"] == 5
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=client) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            stats = server.stats()
            total_materializations = stats["workers"]["totals"][
                "bag_materializations"
            ]
            assert total_materializations == 3  # one pass, three bags


class TestSlowClientRobustness:
    """A stalled client must cost a socket, never a serving thread."""

    def test_half_sent_body_times_out_and_frees_the_thread(self):
        import socket
        import time

        with ReproServer(
            RELATIONS,
            workers=1,
            default_query=QUERY,
            request_timeout=0.5,
        ) as server:
            stalled = socket.create_connection(
                (server.host, server.port), timeout=10
            )
            try:
                # Promise 50 body bytes, deliver 5, then stall: the
                # socket timeout must close the connection instead of
                # pinning the handler thread on rfile.read().
                stalled.sendall(
                    b"POST /v1/session HTTP/1.1\r\n"
                    b"Host: t\r\n"
                    b"Content-Length: 50\r\n"
                    b"\r\n"
                    b'{"op"'
                )
                deadline = time.monotonic() + 10
                closed = b"x"
                while closed and time.monotonic() < deadline:
                    closed = stalled.recv(4096)
                assert closed == b"", (
                    "server never closed the stalled connection"
                )
            finally:
                stalled.close()
            # The (single) worker is free: a healthy request succeeds.
            status, body = post_op(
                server, {"op": "count", "query": QUERY}
            )
            assert status == 200 and body["ok"]


class TestOneWritePerReply:
    """Head and body leave in one ``wfile.write``: a second small
    send() waits on Nagle for the client's delayed ACK (≈ 40 ms on a
    keep-alive socket)."""

    @pytest.fixture(scope="class")
    def read_only_server(self):
        with ReproServer(RELATIONS, workers=1, read_only=True) as running:
            yield running

    @pytest.mark.parametrize("path", sorted(REPLY_PATHS))
    def test_every_reply_path_is_one_write(
        self, path, read_only_server, reply_writes, monkeypatch
    ):
        request, status = REPLY_PATHS[path]
        if status == 503:
            monkeypatch.setattr(read_only_server, "execute", overloaded)
        reply = exchange(read_only_server, request)
        assert status_of(reply) == status
        assert reply_writes == [reply[-1]]

    def test_http09_request_gets_the_bare_body_in_one_write(
        self, server, reply_writes
    ):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            reply = sock.makefile("rb").read()
        assert reply == json.dumps(server.health()).encode()
        assert reply_writes == [reply]

    def test_keep_alive_reads_pay_no_stall(self):
        """Stopwatch over a keep-alive ``repro.connect(url)``: point
        reads ≈ 0.3 ms and a 1 000-row slice (two wire ops) a few ms,
        against 44 ms and 88 ms when every reply took two writes."""
        relations = {
            "R": {(i, i % 7) for i in range(1000)},
            "S": {(j, j * 2) for j in range(7)},
        }
        with ReproServer(relations, workers=2) as server:
            conn = connect(server.url)
            view = conn.prepare(QUERY, order=["x", "y", "z"])
            assert len(view) == 1000
            view[0]  # warm the artifact
            samples = []
            for index in range(60):
                start = time.perf_counter()
                view[index]
                samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            rows = list(view[:1000])
            slice_s = time.perf_counter() - start
            conn.close()
        assert len(rows) == 1000
        assert statistics.median(samples) < 0.005
        assert slice_s < 0.050


class TestShutdownWakesTheLoop:
    """``shutdown()`` wakes the serving loop instead of waiting out a
    poll interval (the stdlib loop polls every 0.5 s)."""

    def test_idle_start_shutdown_cycles_are_fast(self):
        cycles = 20
        start = time.perf_counter()
        for _cycle in range(cycles):
            with ReproServer(RELATIONS, workers=1) as running:
                pass
            counters = running.stats()["server"]
            # The wake is not HTTP traffic.
            assert counters["requests"] == 0
            assert counters["http_errors"] == {}
        elapsed = time.perf_counter() - start
        assert elapsed < cycles * 0.5 / 5, elapsed

    def test_shutdown_after_traffic_keeps_the_counters(self):
        with ReproServer(RELATIONS, workers=1) as running:
            status, body = post_op(
                running, {"op": "count", "query": QUERY}
            )
            assert status == 200 and body["result"]["count"] == 5
            start = time.perf_counter()
        assert time.perf_counter() - start < 0.25
        counters = running.stats()["server"]
        assert counters["requests"] == 1
        assert counters["http_errors"] == {}
        running.shutdown()  # idempotent on a stopped server


class TestWireShape:
    """The head is assembled by hand: pin the framing, the header set
    and the bodies it must keep."""

    HEADERS = ["Server", "Date", "Content-Type", "Content-Length"]

    def assert_head(self, reply, status: int, headers: list[str]):
        status_line, pairs, body, _raw = reply
        assert status_line.startswith(f"HTTP/1.1 {status} ".encode())
        assert [name for name, _value in pairs] == headers
        values = dict(pairs)
        assert values["Server"] == (
            f"{_Handler.server_version} {_Handler.sys_version}"
        )
        parsedate_to_datetime(values["Date"])
        assert values["Content-Type"] == "application/json"
        assert int(values["Content-Length"]) == len(body)

    def test_back_to_back_requests_on_one_socket(self, server, local):
        view = local.prepare(QUERY, order=["x", "y", "z"])
        access = {
            "op": "access",
            "query": QUERY,
            "order": ["x", "y", "z"],
            "indices": [0, -1],
        }
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(raw_op(access) + raw_request("GET", "/healthz"))
            stream = sock.makefile("rb")
            first, second = read_reply(stream), read_reply(stream)
        for reply in (first, second):
            self.assert_head(reply, 200, self.HEADERS)
        assert json.loads(first[2])["result"]["answers"] == [
            list(view[0]),
            list(view[-1]),
        ]
        assert second[2] == json.dumps(server.health()).encode()

    def test_404_post_reads_its_body_before_the_next_request(self):
        """The body of a POST to an unknown path is consumed, so on a
        keep-alive socket it is never parsed as the next request —
        on both fronts."""
        stray = raw_request(
            "POST", "/nope", json.dumps({"op": "stats"}).encode()
        )
        for front in (ReproServer, AsyncReproServer):
            with front(RELATIONS, workers=1) as server:
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as sock:
                    sock.sendall(stray + raw_op({"op": "stats"}))
                    stream = sock.makefile("rb")
                    first, second = read_reply(stream), read_reply(stream)
            assert status_of(first) == 404, front.__name__
            assert json.loads(first[2])["error"].startswith(
                "unknown path '/nope'"
            )
            assert status_of(second) == 200, front.__name__
            assert json.loads(second[2])["ok"] is True
            if front is ReproServer:
                self.assert_head(first, 404, self.HEADERS)
                self.assert_head(second, 200, self.HEADERS)

    def test_503_adds_retry_after(self, server, monkeypatch):
        monkeypatch.setattr(server, "execute", overloaded)
        reply = exchange(server, REPLY_PATHS["503"][0])
        self.assert_head(reply, 503, self.HEADERS + ["Retry-After"])
        assert dict(reply[1])["Retry-After"] == "1"
        assert reply[2] == error_body(
            "every worker queue is full", "count", "OverloadedError"
        )

    @pytest.mark.parametrize("path", ["411", "413"])
    def test_unframeable_requests_close_the_connection(
        self, server, path
    ):
        request, status = REPLY_PATHS[path]
        reply = exchange(server, request, then_closed=True)
        self.assert_head(reply, status, self.HEADERS)

    def test_error_bodies_are_byte_identical(self, server):
        reply = exchange(server, REPLY_PATHS["404-get"][0])
        assert reply[2] == error_body(
            "unknown path '/nope'; serving POST /v1/session, "
            "GET /healthz, GET /stats"
        )
        reply = exchange(server, REPLY_PATHS["411"][0])
        assert reply[2] == error_body("request needs a Content-Length")

    def test_threaded_and_async_fronts_answer_the_same_shape(self):
        requests = [
            REPLY_PATHS[path][0]
            for path in ("200-access", "400-bad-json", "404-get",
                         "404-post", "405", "411", "413")
        ]

        def answers(front):
            with front(RELATIONS, workers=1) as server:
                return [
                    (status_of(reply), dict(reply[1])["Content-Type"],
                     reply[2])
                    for reply in (
                        exchange(server, request) for request in requests
                    )
                ]

        assert answers(ReproServer) == answers(AsyncReproServer)
