"""HTTP serving for the session protocol: ``repro serve``.

The paper's workload is *many* direct-access requests against one
preprocessed join query — a serving workload.  This package is the
transport that matches it: a stdlib-only threaded HTTP server
(:class:`ReproServer`, :mod:`repro.server.http`) exposing the versioned
JSON session protocol at ``POST /v1/session`` plus ``GET /healthz`` and
``GET /stats``, and an HTTP client (:class:`HTTPConnection`,
:mod:`repro.server.client`) that gives remote callers the same
``connect → prepare → view`` facade as a local process —
``repro.connect("http://host:port")`` just works.

Workers are real: each serving thread checks a per-worker
:class:`~repro.Connection` out of a pool, and all workers share one
:class:`~repro.session.ArtifactStore`, so the database is encoded once
and two workers can preprocess *different* decompositions concurrently
while racing workers build the *same* artifact exactly once.

One process serves: the counting forests, the shared store and the
MVCC snapshots live once in the serving process, and ``--workers``
threads read them (``docs/architecture.md``, "Why one process", has
the measurement).

Both fronts wrap one transport-independent :class:`ServingCore`:
the threaded :class:`ReproServer` and the asyncio
:class:`AsyncReproServer` (``repro serve --async``,
:mod:`repro.server.aio`), which multiplexes all connections onto one
event loop and dispatches onto *bounded* per-worker queues — full
fleet → structured HTTP 503 + ``Retry-After``
(:class:`~repro.errors.OverloadedError`).

See ``docs/architecture.md`` for the layer map and
``docs/protocol.md`` for the wire format.
"""

from repro.server.aio import AsyncReproServer
from repro.server.client import HTTPConnection, RemoteAnswerView
from repro.server.http import ReproServer, ServingCore, serve
from repro.server.pool import LocalDispatcher

__all__ = [
    "AsyncReproServer",
    "HTTPConnection",
    "LocalDispatcher",
    "RemoteAnswerView",
    "ReproServer",
    "ServingCore",
    "serve",
]
