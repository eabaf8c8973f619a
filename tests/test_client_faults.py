"""The ``client.*`` fault points of :class:`~repro.server.HTTPConnection`.

Injected transport faults (:mod:`repro.chaos`) against a live
:class:`~repro.server.http.ReproServer`, under both engines: a remote
reader must see a structured error, and its keep-alive pool must stay
usable once the faults clear.
"""

from __future__ import annotations

import pytest

from repro.chaos import faults
from repro.errors import ProtocolError, ReproError
from repro.facade import connect
from repro.server.http import ReproServer

QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(i, i % 7) for i in range(80)},
    "S": {(j, j * 2) for j in range(7)},
}
ORDER = ("x", "y", "z")


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


class TestFaultPoints:
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
