"""Serving layer: amortized direct access across repeated requests.

:class:`AccessSession` fronts an :class:`ArtifactStore` and shares
dictionary encodings, materialized bag relations, and counting
forests between every request that can legally reuse them (same
decomposition, same engine) — see :mod:`repro.session.session`.  It is
the engine room behind the public facade (:func:`repro.connect`).

:mod:`repro.session.artifacts` holds the shared read-only
:class:`ArtifactStore`: encoded database, bag tables, and counting
forests behind per-artifact build locks, fronted by cheap sessions
(the concurrency backbone of ``repro serve``).

:mod:`repro.session.protocol` defines the versioned, JSON-serializable
request/response shapes (:class:`SessionRequest` /
:class:`SessionResponse`) that every transport — the ``repro session``
CLI's JSON lines and the HTTP server (:mod:`repro.server`) alike —
funnels through one executor.
"""

from repro.session.artifacts import ArtifactStore, StoreStats
from repro.session.cache import (
    CacheStats,
    CostAwareCache,
    SessionStats,
)
from repro.session.mvcc import DEFAULT_RETAIN, SnapshotPlane
from repro.session.protocol import (
    PROTOCOL_VERSION,
    SessionRequest,
    SessionResponse,
)
from repro.session.session import AccessSession

__all__ = [
    "AccessSession",
    "ArtifactStore",
    "CacheStats",
    "CostAwareCache",
    "DEFAULT_RETAIN",
    "PROTOCOL_VERSION",
    "SessionRequest",
    "SessionResponse",
    "SessionStats",
    "SnapshotPlane",
    "StoreStats",
]
