"""Serving layer: amortized direct access across repeated requests.

:class:`ArtifactStore` is one object per database: it shares
dictionary encodings, materialized bag relations, and counting
forests between every request that can legally reuse them (same
decomposition, same engine), plans orders cache-aware, and keeps
every counter (:class:`StoreStats`) — see
:mod:`repro.session.artifacts`.  Builds synchronize per artifact, so
one store serves many threads (the concurrency backbone of
``repro serve``).  It is the engine room behind the public facade
(:func:`repro.connect`).

:mod:`repro.session.protocol` defines the versioned, JSON-serializable
request/response shapes (:class:`SessionRequest` /
:class:`SessionResponse`) that every transport — the ``repro session``
CLI's JSON lines and the HTTP server (:mod:`repro.server`) alike —
funnels through one executor.
"""

from repro.session.artifacts import ArtifactStore, StoreStats
from repro.session.cache import CacheStats, CostAwareCache
from repro.session.mvcc import DEFAULT_RETAIN, SnapshotPlane
from repro.session.protocol import (
    PROTOCOL_VERSION,
    SessionRequest,
    SessionResponse,
)

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "CostAwareCache",
    "DEFAULT_RETAIN",
    "PROTOCOL_VERSION",
    "SessionRequest",
    "SessionResponse",
    "SnapshotPlane",
    "StoreStats",
]
