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

Every serving thread shares one :class:`~repro.Connection` over one
:class:`~repro.session.ArtifactStore`, so the database is encoded once
and two requests can preprocess *different* decompositions
concurrently while racing requests build the *same* artifact exactly
once.  One admission gate bounds the work: ``--workers`` requests run
at once, on whichever run slot is free.

One process serves: the counting forests, the shared store and the
MVCC snapshots live once in the serving process, and ``--workers``
threads read them (``docs/architecture.md``, "Why one process", has
the measurement).

Both fronts wrap one transport-independent :class:`ServingCore`:
the threaded :class:`ReproServer` and the asyncio
:class:`AsyncReproServer` (``repro serve --async``,
:mod:`repro.server.aio`), which multiplexes all connections onto one
event loop.  Both admit at most ``workers × queue_depth`` requests —
beyond that a structured HTTP 503 + ``Retry-After``
(:class:`~repro.errors.OverloadedError`).

See ``docs/architecture.md`` for the layer map and
``docs/protocol.md`` for the wire format.
"""

from repro.server.aio import AsyncReproServer
from repro.server.client import HTTPConnection, RemoteAnswerView
from repro.server.http import ReproServer, ServingCore

__all__ = [
    "AsyncReproServer",
    "HTTPConnection",
    "RemoteAnswerView",
    "ReproServer",
    "ServingCore",
]
