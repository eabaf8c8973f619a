"""The HTTP facade client: ``repro.connect("http://host:port")``.

A remote caller wants the same API as a local process — ``connect`` →
``prepare`` → a view with ``Sequence`` semantics — not a bag of JSON
requests.  :class:`HTTPConnection` mirrors
:class:`~repro.facade.Connection` over the wire, and
:class:`RemoteAnswerView` mirrors :class:`~repro.facade.AnswerView`:
positional access, lazy slice sub-views, chunked iteration, inverse
access (:meth:`~RemoteAnswerView.rank` / ``in`` / ``index``), and the
order-statistics task layer, each resolving to at most a few ``POST
/v1/session`` round-trips.

    >>> import repro
    >>> conn = repro.connect("http://127.0.0.1:8080")   # doctest: +SKIP
    >>> view = conn.prepare("Q(x, y, z) :- R(x, y), S(y, z)",
    ...                     order=["x", "y", "z"])      # doctest: +SKIP
    >>> len(view), view[0], view.rank(view[0])          # doctest: +SKIP
    (4, (1, 2, 7), 0)

Everything rides the versioned JSON session protocol
(:mod:`repro.session.protocol`, spec in ``docs/protocol.md``): the
server replays failed requests' exception types (``error_type``), so a
bad remote request raises the same :mod:`repro.errors` class a local
call would.  Only the stdlib :mod:`http.client` is used — no
dependencies — over a small **keep-alive pool**: TCP connections are
reused across requests (and across threads) instead of paying a fresh
handshake per round-trip, and a connection the server closed under us
is retried once on a fresh socket.

Remote views are **version-pinned**: ``prepare`` captures the server's
``db_version`` alongside the answer count and every read echoes it, so
the server serves the view's MVCC snapshot — a view keeps answering
across later mutations (``insert``/``delete``/``apply``) while its
version stays retained, and reads raise
:class:`~repro.errors.StaleViewError` (replayed from the wire) only
once the snapshot is evicted — the same behavior as a local view.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse

from repro.chaos.faults import fire as _chaos_fire
from repro.data.delta import Delta
from repro.errors import ProtocolError, ReproError
from repro.facade import WindowedAnswers
from repro.server.http import SESSION_ROUTE
from repro.session.protocol import (
    MUTATION_OPS,
    PROTOCOL_VERSION,
    SessionRequest,
    SessionResponse,
)

import repro.errors as _errors


def normalize_base_url(url: str) -> str:
    """A base URL with scheme and no trailing slash.

        >>> normalize_base_url("http://localhost:8080/")
        'http://localhost:8080'
        >>> normalize_base_url("127.0.0.1:8080")
        'http://127.0.0.1:8080'
    """
    url = url.strip().rstrip("/")
    if not url.startswith(("http://", "https://")):
        url = "http://" + url
    return url


class _KeepAlivePool:
    """A small pool of reusable :mod:`http.client` connections.

    ``request()`` checks an idle connection out (or opens one), runs
    one HTTP exchange, and returns the connection to the pool when the
    server kept it alive.  A reused connection the server has since
    closed fails the exchange — that one case is retried exactly once
    on a fresh socket; errors on a *fresh* socket propagate (the
    server really is unreachable).  Thread-safe; at most
    :attr:`MAX_IDLE` sockets are parked, extras are closed on release.

    ``opened`` counts sockets ever opened — the keep-alive win is
    ``opened`` staying flat while request counts grow (asserted by
    ``tests/test_mutations.py``, ``TestOverTheWire``).
    """

    MAX_IDLE = 4

    def __init__(self, base_url: str, timeout: float):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme == "https":
            self._factory = http.client.HTTPSConnection
        else:
            self._factory = http.client.HTTPConnection
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port
        self._timeout = timeout
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._closed = False
        self.opened = 0

    def _connect(self) -> http.client.HTTPConnection:
        connection = self._factory(
            self._host, self._port, timeout=self._timeout
        )
        with self._lock:
            self.opened += 1
        return connection

    def _exchange(self, connection, method, path, body, headers):
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()  # drain fully: required before reuse
        return response, data

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict | None = None,
        reuse: bool = True,
    ) -> tuple[int, bytes]:
        """One round-trip; ``(status, body)`` whatever the status.

        ``reuse=False`` skips the idle pool and opens a fresh socket
        (still parked afterwards): for non-idempotent requests, a
        reused socket's stale-close failure is indistinguishable from
        "the server already applied it", so the silent retry below
        must never re-send them — a fresh socket's failure is a real
        transport error and propagates instead.
        """
        # Fault points (free no-ops unless a chaos plan is armed).
        # They fire *before* a socket is checked out, modelling the
        # transport dying under the caller: no idle connection is
        # consumed or poisoned, so the pool stays reusable once the
        # fault clears.
        if _chaos_fire("client.timeout"):
            raise TimeoutError(  # repro: noqa[EXC-TAXONOMY] -- chaos injection mimics the transport's own exception
                f"chaos: injected client timeout on {method} {path}"
            )
        if _chaos_fire("client.disconnect"):
            raise ConnectionResetError(  # repro: noqa[EXC-TAXONOMY] -- chaos injection mimics the transport's own exception
                f"chaos: injected disconnect mid-body on {method} {path}"
            )
        if _chaos_fire("client.http_500"):
            return 500, b"chaos: injected upstream 5xx"
        headers = headers or {}
        connection = None
        with self._lock:
            if self._closed:
                raise ReproError("connection is closed")
            if reuse and self._idle:
                connection = self._idle.pop()
        reused = connection is not None
        if connection is None:
            connection = self._connect()
        try:
            response, data = self._exchange(
                connection, method, path, body, headers
            )
        except (http.client.HTTPException, OSError):
            connection.close()
            if not reused:
                raise
            # The parked socket went stale (server-side close, idle
            # timeout): one retry on a fresh socket, then give up.
            connection = self._connect()
            try:
                response, data = self._exchange(
                    connection, method, path, body, headers
                )
            except (http.client.HTTPException, OSError):
                connection.close()
                raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                if not self._closed and len(self._idle) < self.MAX_IDLE:
                    self._idle.append(connection)
                    connection = None
            if connection is not None:
                connection.close()
        return response.status, data

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


def _raise_remote(response: SessionResponse) -> None:
    """Re-raise a failed response as the exception a local call raises.

    The server sends the library exception's class name in
    ``error_type``; unknown or missing types degrade to plain
    :class:`~repro.errors.ReproError`.
    """
    message = response.error or "request failed"
    exc_type = getattr(_errors, response.error_type or "", None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        raise exc_type(message)
    raise ReproError(message)


class HTTPConnection:
    """A prepared-query handle over a remote ``repro serve`` process.

    The HTTP twin of :class:`~repro.facade.Connection`: construct
    through :func:`repro.connect` with a URL.  Opening the connection
    pings ``GET /healthz`` once — a bad address fails fast, and the
    server's protocol version is checked against ours.

    Args:
        url: base URL of the server (scheme optional, ``http://``
            assumed).
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, url: str, timeout: float = 30.0):
        self._base = normalize_base_url(url)
        self._timeout = timeout
        self._closed = False
        self._pool = _KeepAlivePool(self._base, timeout)
        health = self._get_json("/healthz")
        remote_protocol = health.get("protocol")
        if (
            not isinstance(remote_protocol, int)
            or remote_protocol > PROTOCOL_VERSION
        ):
            raise ProtocolError(
                f"server at {self._base} speaks protocol "
                f"{remote_protocol!r}, this client speaks "
                f"{PROTOCOL_VERSION}"
            )
        self._health = health

    # -- transport ---------------------------------------------------------

    def _get_json(self, path: str) -> dict:
        try:
            _status, body = self._pool.request("GET", path)
        except (OSError, http.client.HTTPException) as error:
            raise ReproError(
                f"cannot reach repro server at {self._base}: {error}"
            ) from None
        try:
            return json.loads(body.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            # Some other service answered: fail fast with a clean
            # error, not a JSON traceback out of connect().
            raise ProtocolError(
                f"{self._base}{path} did not answer with JSON — is "
                "this really a repro server?"
            ) from None

    def request(self, request: SessionRequest) -> SessionResponse:
        """One protocol round-trip (the raw, never-raising layer).

        Rides the keep-alive pool; transport-level rejections
        (400/404/413/...) carry the same structured
        :class:`~repro.session.SessionResponse` body as protocol-level
        failures, so every status parses the same way.
        """
        self._check_open()
        try:
            _status, body = self._pool.request(
                "POST",
                SESSION_ROUTE,
                body=request.to_json().encode("utf-8"),
                headers={"Content-Type": "application/json"},
                # Mutations must never ride a maybe-stale socket: the
                # pool's silent retry could apply them twice.
                reuse=request.op not in MUTATION_OPS,
            )
        except (OSError, http.client.HTTPException) as error:
            raise ReproError(
                f"cannot reach repro server at {self._base}: {error}"
            ) from None
        return SessionResponse.from_json(body.decode("utf-8"))

    def _call(self, op: str, **fields):
        """One op; raises the replayed library error on ``ok=False``."""
        response = self.request(SessionRequest(op=op, **fields))
        if not response.ok:
            _raise_remote(response)
        return response.result

    # -- the one API -------------------------------------------------------

    def prepare(
        self, query, order=None, prefix=None
    ) -> "RemoteAnswerView":
        """Preprocess ``query`` server-side; a remote answer view.

        The server plans (cache-aware) when ``order`` is ``None``,
        preprocesses, and replies with the served order and answer
        count; every later read on the view pins that exact order, so
        the view is stable even while other clients warm other orders.
        """
        result = self._call(
            "count",
            query=self._query_text(query),
            order=tuple(order) if order is not None else None,
            prefix=tuple(prefix) if prefix is not None else None,
        )
        return RemoteAnswerView(
            self,
            self._query_text(query),
            tuple(result["order"]),
            result["count"],
            version=result.get("db_version"),
        )

    def plan(self, query, prefix=None) -> dict:
        """The order the server would serve with: ``{"order": [...],
        "iota": "..."}`` (the exponent as an exact fraction string)."""
        return self._call(
            "plan",
            query=self._query_text(query),
            prefix=tuple(prefix) if prefix is not None else None,
        )

    @staticmethod
    def _query_text(query) -> str:
        return query if isinstance(query, str) else str(query)

    # -- mutations ---------------------------------------------------------

    def apply(self, delta) -> int:
        """Apply a :class:`~repro.data.delta.Delta` on the server.

        Ships the whole delta as **one atomic ``apply`` op**: however
        many relations it touches, the server applies it in a single
        step and bumps ``db_version`` exactly once — no client ever
        observes a state where only some relations have changed,
        matching a local :meth:`~repro.facade.Connection.apply`.
        Returns the new database version (an effectively-empty delta
        is a server-side no-op: current version, no bump).
        """
        self._check_open()
        delta = Delta.coerce(delta)
        if delta.is_empty:  # nothing to ship
            return self.db_version
        return self._call(
            "apply",
            inserts={
                name: tuple(sorted(delta.inserts[name]))
                for name in sorted(delta.inserts)
            }
            or None,
            deletes={
                name: tuple(sorted(delta.deletes[name]))
                for name in sorted(delta.deletes)
            }
            or None,
        )["db_version"]

    def insert(self, relation: str, rows) -> int:
        """Insert ``rows`` into ``relation``; the new database version."""
        return self.apply(Delta(inserts={relation: rows}))

    def delete(self, relation: str, rows) -> int:
        """Delete ``rows`` from ``relation``; the new database version."""
        return self.apply(Delta(deletes={relation: rows}))

    @property
    def db_version(self) -> int:
        """The server's current database version (one round-trip)."""
        return self._call("db_version")["db_version"]

    # -- observability / lifecycle -----------------------------------------

    @property
    def url(self) -> str:
        return self._base

    @property
    def engine_name(self) -> str:
        return self._health["engine"]

    def health(self) -> dict:
        """A fresh ``GET /healthz`` snapshot."""
        return self._get_json("/healthz")

    def stats(self) -> dict:
        """``GET /stats``: shared-store, session, and wire counters."""
        return self._get_json("/stats")

    def close(self) -> None:
        """Close the pooled sockets and refuse further requests (the
        server is not affected)."""
        self._closed = True
        self._pool.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("connection is closed")

    def __enter__(self) -> "HTTPConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"HTTPConnection({self._base!r}, {state})"


class RemoteAnswerView(WindowedAnswers):
    """Sorted answers of a remotely prepared query, as a lazy Sequence.

    The wire twin of :class:`~repro.facade.AnswerView`: both inherit
    the window and inverse-access laws from
    :class:`~repro.facade.WindowedAnswers` (negative indices, lazy
    slice sub-views with steps, chunked iteration,
    ``view[view.rank(t)] == t``, the task layer), so the two can never
    silently diverge.  Here the primitives go over HTTP — each batch
    of positional reads is one ``access`` request per ``ITER_CHUNK``
    indices (bounded bodies, arbitrarily large batches) and each rank
    probe one ``rank`` request.  Bounds are checked client-side
    against the count captured at :meth:`~HTTPConnection.prepare`
    time, so out-of-range indices never touch the network and
    iteration terminates without a round-trip.

    Staleness: the view pins the server's ``db_version`` at prepare
    time and every wire read echoes it, so the server serves reads
    from that MVCC snapshot — the view keeps answering across later
    server-side mutations while its version stays retained, and reads
    raise :class:`~repro.errors.StaleViewError` (replayed from the
    wire) only once the snapshot is evicted.  ``len()`` stays the
    pinned prepare-time count — client-side state, no round-trip —
    and is exactly the snapshot's count.
    """

    #: Tuples per ``access`` request (iteration and batch reads).
    ITER_CHUNK = 512

    __slots__ = ("_connection", "_query", "_order", "_total", "_version")

    def __init__(
        self,
        connection: HTTPConnection,
        query: str,
        order: tuple[str, ...],
        total: int,
        window: range | None = None,
        version: int | None = None,
    ):
        self._connection = connection
        self._query = query
        self._order = order
        self._total = total
        self._window = range(total) if window is None else window
        # The server's db_version at prepare time; every read echoes
        # it, so a mutation on the server turns further reads into
        # StaleViewError (replayed from the wire) instead of silently
        # mixing pre- and post-mutation answers with the pinned count.
        self._version = version

    @property
    def db_version(self) -> int | None:
        """The server database version this view is pinned to."""
        return self._version

    # -- the windowed-Sequence primitives ----------------------------------

    def _resolve(self, underlying: list[int]) -> list[tuple]:
        # Chunked so an arbitrarily large batch (tuples_at over a huge
        # view, sample(k) with big k) can never outgrow the server's
        # request-body cap — each chunk is one bounded access op.
        out: list[tuple] = []
        for start in range(0, len(underlying), self.ITER_CHUNK):
            chunk = underlying[start : start + self.ITER_CHUNK]
            answers = self._connection._call(
                "access",
                query=self._query,
                order=self._order,
                indices=tuple(chunk),
                db_version=self._version,
            )["answers"]
            out.extend(tuple(answer) for answer in answers)
        return out

    def _rank_underlying(self, row: tuple) -> int | None:
        return self._connection._call(
            "rank",
            query=self._query,
            order=self._order,
            answer=tuple(row),
            db_version=self._version,
        )["rank"]

    def ranks(self, rows) -> list[int | None]:
        """Batch :meth:`rank` in one wire op per :attr:`ITER_CHUNK`
        tuples (the protocol's batched ``rank`` form) instead of one
        round-trip per tuple."""
        rows = list(rows)
        out: list[int | None] = [None] * len(rows)
        wired = [
            (position, tuple(row))
            for position, row in enumerate(rows)
            if isinstance(row, (list, tuple))
        ]  # non-sequences can never be answers: no round-trip spent
        if not wired and self._version is not None:
            # Nothing reaches the wire, so no op would carry the
            # version pin — probe with a pinned count: the server
            # applies the same MVCC retention rules as any real read
            # (StaleViewError iff the snapshot is gone), exactly like
            # the local AnswerView.ranks.
            self._connection._call(
                "count",
                query=self._query,
                order=self._order,
                db_version=self._version,
            )
        for start in range(0, len(wired), self.ITER_CHUNK):
            chunk = wired[start : start + self.ITER_CHUNK]
            ranks = self._connection._call(
                "rank",
                query=self._query,
                order=self._order,
                answers=tuple(row for _position, row in chunk),
                db_version=self._version,
            )["ranks"]
            for (position, _row), underlying in zip(chunk, ranks):
                if underlying is None:
                    continue
                try:
                    out[position] = self._window.index(underlying)
                except ValueError:
                    pass  # an answer, but outside this view's window
        return out

    def _subview(self, window: range) -> "RemoteAnswerView":
        return RemoteAnswerView(
            self._connection,
            self._query,
            self._order,
            self._total,
            window,
            version=self._version,
        )

    # -- provenance --------------------------------------------------------

    @property
    def query(self) -> str:
        return self._query

    @property
    def order(self) -> tuple[str, ...]:
        """The variable order the answers are sorted by."""
        return self._order

    @property
    def columns(self) -> tuple[str, ...]:
        """The variables of each answer tuple, in order position."""
        return self._order

    def __repr__(self) -> str:
        window = self._window
        full = window == range(self._total)
        span = "" if full else f", window={window!r}"
        return (
            f"RemoteAnswerView({self._query}, "
            f"order={list(self._order)}, len={len(self)}{span})"
        )


__all__ = [
    "HTTPConnection",
    "RemoteAnswerView",
    "normalize_base_url",
]
