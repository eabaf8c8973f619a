"""Bounded admission (:mod:`repro.server.pool`) and the read-only mode.

One process serves: :class:`LocalDispatcher` admits each request to
the shallowest in-process worker slot, or rejects it with
``OverloadedError`` (HTTP 503) once every queue is full.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

import repro
from repro.data.delta import Delta
from repro.errors import OverloadedError, ReadOnlyError
from repro.server import ReproServer
from repro.server.pool import LocalDispatcher, elect_slot

QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
RELATIONS = {
    "R": {(i, i % 7) for i in range(50)},
    "S": {(j, j * 2) for j in range(7)},
}


class TestDepthAwareDispatch:
    """The election policy, without booting a server."""

    def test_no_affinity_picks_shallowest(self):
        assert elect_slot([3, 1, 2], capacity=4) == 1

    def test_full_fleet_rejects(self):
        with pytest.raises(OverloadedError):
            elect_slot([2, 2], capacity=2)

    def test_local_dispatcher_bounds_and_counts(self):
        slots = ["a", "b"]
        dispatcher = LocalDispatcher(slots, max_queue_depth=1)
        first = dispatcher.admit()
        second = dispatcher.admit()
        assert {first, second} == {0, 1}
        with pytest.raises(OverloadedError):
            dispatcher.admit()
        counters = dispatcher.counters()
        assert counters["rejections"] == 1
        assert counters["queue_depths"] == [1, 1]
        assert dispatcher.acquire(first) == slots[first]
        dispatcher.release(first)
        dispatcher.release(second)
        assert dispatcher.counters()["queue_depths"] == [0, 0]
        assert dispatcher.admit() in (0, 1)


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
