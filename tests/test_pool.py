"""Bounded admission (:class:`~repro.server.http.AdmissionGate`) and
the read-only mode.

One session serves every request: the gate admits at most ``workers ×
queue_depth`` requests, rejecting the rest with ``OverloadedError``
(HTTP 503), and runs each admitted request on whichever of the
``workers`` run slots is free.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro
import repro.server.http as http_module
from repro.data.delta import Delta
from repro.errors import OverloadedError, ReadOnlyError
from repro.server import ReproServer, ServingCore
from repro.server.http import AdmissionGate
from repro.session.protocol import SessionRequest

QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(i, i % 7) for i in range(50)},
    "S": {(j, j * 2) for j in range(7)},
}


class TestAdmissionGate:
    """The gate, without booting a server."""

    def test_full_gate_rejects(self):
        gate = AdmissionGate(workers=2, queue_depth=1)
        gate.admit()
        gate.admit()
        with pytest.raises(OverloadedError):
            gate.admit()

    def test_gate_bounds_and_counts(self):
        gate = AdmissionGate(workers=2, queue_depth=1)
        gate.admit()
        gate.admit()
        with pytest.raises(OverloadedError):
            gate.admit()
        assert gate.counters() == {
            "workers": 2,
            "queue_capacity": 2,
            "admitted": 2,
            "rejections": 1,
        }
        gate.acquire()
        gate.acquire()  # any slot: both run at once
        gate.release()
        gate.release()
        assert gate.counters()["admitted"] == 0
        gate.admit()  # room again
        assert gate.counters()["admitted"] == 1

    @pytest.mark.parametrize("workers, depth", [(0, 1), (1, 0)])
    def test_gate_rejects_empty_bounds(self, workers, depth):
        with pytest.raises(ValueError):
            AdmissionGate(workers, depth)

    def test_free_slot_serves_past_a_held_one(self, monkeypatch):
        """Requests A and B hold both run slots; C is admitted behind
        them.  Releasing B alone must let C finish while A is still
        held: C waits for *any* slot, not for one it was pinned to."""
        real = http_module.execute
        entered = {0: threading.Event(), 1: threading.Event()}
        release = {0: threading.Event(), 1: threading.Event()}

        def held_execute(connection, request, **kwargs):
            index = request.indices[0]
            if index in release:
                entered[index].set()
                assert release[index].wait(30)
            return real(connection, request, **kwargs)

        monkeypatch.setattr(http_module, "execute", held_execute)
        core = ServingCore(RELATIONS, workers=2, default_query=QUERY)
        real_acquire = core.gate.acquire
        acquires: list = []
        c_waits = threading.Event()

        def counted_acquire():
            acquires.append(None)
            if len(acquires) == 3:
                c_waits.set()  # C is admitted and asks for a slot
            real_acquire()

        monkeypatch.setattr(core.gate, "acquire", counted_acquire)
        answers: dict = {}

        def client(index):
            answers[index] = core.execute(
                SessionRequest(
                    op="access",
                    order=("x", "y", "z"),
                    indices=(index,),
                )
            )

        threads = {
            index: threading.Thread(target=client, args=(index,))
            for index in (0, 1, 2)
        }
        try:
            threads[0].start()
            assert entered[0].wait(10)
            threads[1].start()
            assert entered[1].wait(10)
            threads[2].start()
            assert c_waits.wait(10)  # both slots are busy
            release[1].set()
            threads[1].join(10)
            threads[2].join(10)
            assert not threads[2].is_alive(), "C queued behind A"
            assert threads[0].is_alive()  # A is still held
            assert answers[2].ok
        finally:
            release[0].set()
            release[1].set()
            for thread in threads.values():
                thread.join(10)
            core.close()
        assert answers[0].ok and answers[1].ok
        assert core.gate.counters()["admitted"] == 0


class TestServingModes:
    def test_read_only_refuses_mutations_with_403(self):
        with ReproServer(
            RELATIONS, workers=2, default_query=QUERY, read_only=True
        ) as server:
            assert server.health()["read_only"] is True
            connection = repro.connect(server.url)
            view = connection.prepare(QUERY, order=["x", "y", "z"])
            assert len(view) == 50  # reads still work
            with pytest.raises(ReadOnlyError):
                connection.apply(Delta(inserts={"R": {(1000, 1)}}))
            connection.close()

            # The wire shape: a structured 403, not a 200 error body.
            body = json.dumps(
                {"op": "insert", "relation": "R", "rows": [[1000, 1]]}
            ).encode()
            request = urllib.request.Request(
                server.url + "/v1/session", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 403
            payload = json.loads(caught.value.read().decode())
            assert payload["error_type"] == "ReadOnlyError"
