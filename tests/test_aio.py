"""The asyncio serving front: multiplexing, framing, and overload.

The contract under test: ``--async`` is a *front* swap, never a wire
change — same routes, same shapes, same errors as the threaded server
— plus the properties only an event loop can give: many keep-alive
connections over few workers, pipelined requests answered in order
from one buffer, a connection ceiling that rejects loudly, bounded
admission that answers 503 instead of queueing without bound, and a
drain that lets in-flight requests finish.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

import repro
from repro.errors import OverloadedError
from repro.server.aio import AsyncReproServer
from tests.conftest import read_reply

QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(i, i % 7) for i in range(50)},
    "S": {(j, j * 2) for j in range(7)},
}


def drive(connection):
    """A fixed read workload; the tuple must be front-independent."""
    view = connection.prepare(QUERY, order=["x", "y", "z"])
    sample = [tuple(view[i]) for i in (0, 5, -1)]
    ranks = view.ranks([view[3], (999, 0, 0)])
    return len(view), sample, ranks, view.median()


def raw_socket(server, timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection(
        (server.host, server.port), timeout=timeout
    )
    return sock


def post_bytes(op_body: dict) -> bytes:
    body = json.dumps(op_body).encode()
    return (
        b"POST /v1/session HTTP/1.1\r\n"
        b"Host: t\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        b"\r\n" + body
    )


def read_response(sock) -> tuple[int, dict[str, str], bytes]:
    """One framed HTTP response off ``sock``: (status, headers, body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(4096)
        assert chunk, "connection closed mid-body"
        rest += chunk
    return status, headers, rest[:length]


class TestAsyncFront:
    def test_end_to_end_matches_threaded_semantics(self):
        """The full client workload over the async front answers
        exactly what a local connection answers."""
        expected = drive(repro.connect(RELATIONS))
        with AsyncReproServer(
            RELATIONS, workers=2, default_query=QUERY
        ) as server:
            connection = repro.connect(server.url)
            assert drive(connection) == expected
            health = server.health()
            assert health["front"] == "async"
            stats = server.stats()
            assert stats["front"]["kind"] == "async"
            assert stats["dispatch"]["rejections"] == 0
            connection.close()
        assert server.clean_shutdown is True

    def test_keep_alive_many_requests_one_socket(self):
        """Dozens of requests ride one TCP connection; the front never
        closes it under the client."""
        with AsyncReproServer(
            RELATIONS, workers=2, default_query=QUERY
        ) as server:
            sock = raw_socket(server)
            try:
                for _ in range(25):
                    sock.sendall(
                        post_bytes(
                            {"op": "count", "order": ["x", "y", "z"]}
                        )
                    )
                    status, headers, body = read_response(sock)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                    assert json.loads(body)["result"]["count"] == 50
            finally:
                sock.close()
            assert server.stats()["front"]["connections_peak"] >= 1

    def test_pipelined_requests_answered_in_order(self):
        """Two requests in one write get two framed responses in
        request order — leftover buffer bytes are never dropped."""
        with AsyncReproServer(
            RELATIONS, workers=2, default_query=QUERY
        ) as server:
            sock = raw_socket(server)
            try:
                sock.sendall(
                    post_bytes({"op": "count", "order": ["x", "y", "z"]})
                    + post_bytes(
                        {
                            "op": "access",
                            "order": ["x", "y", "z"],
                            "indices": [0],
                        }
                    )
                )
                # One buffered stream: bytes of the second reply that
                # arrive with the first stay for the next read.
                stream = sock.makefile("rb")
                replies = [read_reply(stream) for _ in range(2)]
                assert [int(reply[0].split()[1]) for reply in replies] == [
                    200, 200
                ]
                first, second = (json.loads(reply[2]) for reply in replies)
                assert first["op"] == "count"
                assert second["op"] == "access"
                assert second["result"]["answers"] == [[0, 0, 0]]
            finally:
                sock.close()

    def test_fan_in_exceeding_worker_count(self):
        """4x more concurrent connections than workers all finish
        correctly — the loop multiplexes, dispatch bounds the work."""
        expected = drive(repro.connect(RELATIONS))
        with AsyncReproServer(
            RELATIONS, workers=2, default_query=QUERY
        ) as server:
            results: list = [None] * 8
            def hit(slot: int) -> None:
                connection = repro.connect(server.url)
                try:
                    results[slot] = drive(connection)
                finally:
                    connection.close()

            threads = [
                threading.Thread(target=hit, args=(slot,))
                for slot in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert results == [expected] * len(results)
            assert (
                server.stats()["front"]["connections_peak"]
                > server.workers
            )
        assert server.clean_shutdown is True

    def test_connection_ceiling_rejects_with_503(self):
        """Connection max_connections+1 gets an immediate structured
        503 with Retry-After and a closed socket."""
        with AsyncReproServer(
            RELATIONS,
            workers=1,
            default_query=QUERY,
            max_connections=1,
        ) as server:
            first = raw_socket(server)
            try:
                # Prove the first connection is registered before the
                # second connects.
                first.sendall(
                    post_bytes({"op": "count", "order": ["x", "y", "z"]})
                )
                status, _headers, _body = read_response(first)
                assert status == 200

                second = raw_socket(server)
                try:
                    status, headers, body = read_response(second)
                    assert status == 503
                    assert headers["retry-after"] == "1"
                    assert headers["connection"] == "close"
                    payload = json.loads(body)
                    assert payload["error_type"] == "OverloadedError"
                    # The server closes after the rejection.
                    assert second.recv(1) == b""
                finally:
                    second.close()
            finally:
                first.close()
            assert server.stats()["front"]["ceiling_rejections"] >= 1

    def test_full_queues_answer_503_with_retry_after(self):
        """Bounded admission: the gate full → a structured 503 the
        HTTP client replays as OverloadedError."""
        with AsyncReproServer(
            RELATIONS, workers=1, default_query=QUERY, queue_depth=1
        ) as server:
            gate = server.core.gate
            gate.admit()  # the one admission, now taken
            gate.acquire()
            try:
                sock = raw_socket(server)
                try:
                    sock.sendall(
                        post_bytes(
                            {"op": "count", "order": ["x", "y", "z"]}
                        )
                    )
                    status, headers, body = read_response(sock)
                    assert status == 503
                    assert headers["retry-after"] == "1"
                    payload = json.loads(body)
                    assert payload["ok"] is False
                    assert payload["error_type"] == "OverloadedError"
                finally:
                    sock.close()

                connection = repro.connect(server.url)
                with pytest.raises(OverloadedError):
                    connection.prepare(QUERY, order=["x", "y", "z"])
                connection.close()
            finally:
                gate.release()
            stats = server.stats()
            assert stats["dispatch"]["rejections"] >= 2
            assert stats["server"]["http_errors"]["503"] >= 2
            # Released: the same request now succeeds.
            connection = repro.connect(server.url)
            assert drive(connection)[0] == 50
            connection.close()

    def test_stalled_client_loses_connection_not_a_worker(self):
        """A half-sent head trips the read timeout; the connection is
        closed and serving continues for healthy clients."""
        with AsyncReproServer(
            RELATIONS,
            workers=1,
            default_query=QUERY,
            request_timeout=0.5,
        ) as server:
            stalled = raw_socket(server)
            try:
                stalled.sendall(b"POST /v1/session HTT")  # ... nothing
                deadline = time.monotonic() + 10
                stalled.settimeout(10)
                assert stalled.recv(1) == b""  # server closed on us
                assert time.monotonic() < deadline
            finally:
                stalled.close()
            connection = repro.connect(server.url)
            assert drive(connection)[0] == 50
            connection.close()

    def test_drain_finishes_in_flight_request(self):
        """Shutdown with a request mid-dispatch: the request completes
        and the drain is clean, not cancelled."""
        with AsyncReproServer(
            RELATIONS, workers=1, default_query=QUERY, queue_depth=4
        ) as server:
            gate = server.core.gate
            gate.admit()
            gate.acquire()  # the one run slot is now busy
            outcome: dict = {}

            def slow_request() -> None:
                sock = raw_socket(server, timeout=30)
                try:
                    sock.sendall(
                        post_bytes(
                            {"op": "count", "order": ["x", "y", "z"]}
                        )
                    )
                    status, _headers, body = read_response(sock)
                    outcome["status"] = status
                    outcome["body"] = json.loads(body)
                finally:
                    sock.close()

            thread = threading.Thread(target=slow_request)
            thread.start()
            # Let the request reach acquire() and block on the held
            # slot, then begin the drain while it is in flight.
            time.sleep(0.3)
            server.request_shutdown()
            time.sleep(0.2)
            gate.release()
            thread.join(timeout=30)
            server.shutdown()
            assert outcome.get("status") == 200
            assert outcome["body"]["result"]["count"] == 50
        assert server.clean_shutdown is True


class TestAsyncCLI:
    def test_sigterm_drains_cleanly(self, tmp_path):
        """`repro serve --async` + SIGTERM exits 0 after a drain."""
        import os
        import signal
        import subprocess
        import sys
        import urllib.request

        csv = tmp_path / "r.csv"
        csv.write_text("1,2\n2,3\n3,4\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--async",
                "--relation",
                f"R={csv}",
                "--query",
                "Q(x, y) :- R(x, y)",
                "--port",
                "0",
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "repro serving on http://" in banner, banner
            url = banner.split("repro serving on ")[1].split()[0]
            deadline = time.monotonic() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                        url + "/healthz", timeout=5
                    ) as response:
                        health = json.loads(response.read())
                    assert health["front"] == "async"
                    break
                except OSError:
                    assert time.monotonic() < deadline
                    time.sleep(0.1)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
