"""The serving core and its threaded HTTP transport.

One server = one database, served by one
:class:`~repro.Connection` over one :class:`~repro.session.ArtifactStore`
that every handler thread shares.  The HTTP layer is deliberately
thin — stdlib :mod:`http.server` with threads, no framework — because
the protocol work (parsing, validation, execution) already lives in
:mod:`repro.session.protocol` and is transport-independent.

The serving state itself is transport-independent too:
:class:`ServingCore` owns the store, the shared connection, the
admission gate, and the health/stats views.  Two fronts wrap
one core — :class:`ReproServer` (threads, this module) and
:class:`~repro.server.aio.AsyncReproServer` (``repro serve --async``,
an asyncio event loop) — and answer byte-identical wire shapes.

Routes (full spec in ``docs/protocol.md``):

* ``POST /v1/session`` — body is one
  :class:`~repro.session.SessionRequest` JSON object; the reply is one
  :class:`~repro.session.SessionResponse`.  Requests the library
  rejects (bad index, unknown variable, ...) come back as HTTP 200
  with ``ok=false`` — the protocol's own error channel; *malformed*
  bodies (invalid JSON, unknown fields, newer protocol version) are
  HTTP 400 with the same structured shape, never a traceback.  When
  ``workers × queue_depth`` requests are already admitted, admission
  fails fast: HTTP 503 with a ``Retry-After`` header and
  ``error_type`` ``OverloadedError``.
* ``GET /healthz`` — liveness: package + protocol versions, engine,
  worker count and front.
* ``GET /stats`` — the store's counters (``store``, and its
  request/work and cache counters again under ``workers.totals``),
  the transport's own op counters, and the admission gate's counters.

Concurrency: :class:`http.server.ThreadingHTTPServer` spawns a thread
per connection; each request then passes one :class:`AdmissionGate`,
so ``--workers`` caps concurrent query work and ``--queue-depth``
caps how much work may wait, regardless of open sockets.  A request
runs as soon as *any* run slot is free.  Sockets carry a
read/write timeout (``request_timeout``), so a stalled client cannot
pin a serving thread forever.  Artifact builds synchronize per
artifact in the store — two clients asking for different
decompositions preprocess concurrently; two asking for the same one
build it once.

Start one from Python (or ``repro serve`` from a shell)::

    import repro
    from repro.server import ReproServer

    with ReproServer({"R": {(1, 2)}}, workers=4) as server:
        conn = repro.connect(server.url)       # HTTP facade client
        view = conn.prepare("Q(x, y) :- R(x, y)", order=["x", "y"])
        assert view[0] == (1, 2)
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.data.database import Database
from repro.errors import OverloadedError, ProtocolError
from repro.facade import Connection
from repro.query.parser import parse_query
from repro.session.artifacts import ArtifactStore
from repro.session.protocol import (
    MUTATION_OPS,
    PROTOCOL_VERSION,
    SessionRequest,
    SessionResponse,
    execute,
)

#: Route of the one serving endpoint (POST).
SESSION_ROUTE = "/v1/session"

#: Hard cap on request bodies; a session request is a few hundred bytes,
#: so anything near this is a client bug, answered with HTTP 413.
MAX_BODY_BYTES = 1 << 20

#: Default pending requests per run slot.  Once ``workers ×
#: queue_depth`` requests are admitted, admission fails with
#: :class:`~repro.errors.OverloadedError` (HTTP 503 on the wire) —
#: overload surfaces as immediate, retryable rejection instead of
#: unbounded queueing.
DEFAULT_QUEUE_DEPTH = 16

#: Socket read/write timeout of the threaded front, seconds.  A client
#: that stalls mid-body (or never drains its response) trips the
#: timeout and loses the connection instead of pinning a thread.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: The ``Retry-After`` value sent with every 503: overload is bursty
#: by construction (bounded queues), so clients should retry shortly.
RETRY_AFTER_SECONDS = 1


def error_body(
    message: str, op: str = "?", error_type: str | None = None
) -> bytes:
    """The structured JSON body for a transport-level error.

    Same shape as a protocol-level failure — an ``ok=false``
    :class:`~repro.session.SessionResponse` — so clients parse exactly
    one error format at every layer.  ``error_type`` names the
    :mod:`repro.errors` class the client should re-raise (e.g.
    ``OverloadedError`` on a 503):

        >>> import json
        >>> body = json.loads(error_body("bad JSON request").decode())
        >>> body["ok"], body["error"]
        (False, 'bad JSON request')
    """
    return (
        SessionResponse(
            op=op, ok=False, error=message, error_type=error_type
        )
        .to_json()
        .encode("utf-8")
    )


class _ServerCounters:
    """Transport-level op/error counters (the store counts cache work;
    this counts wire traffic), locked because handler threads race."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.ops: Counter[str] = Counter()
        self.http_errors: Counter[int] = Counter()

    def count_request(self, op: str) -> None:
        with self._lock:
            self.requests += 1
            self.ops[op] += 1

    def count_error(self, status: int) -> None:
        with self._lock:
            self.http_errors[status] += 1

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "ops": dict(self.ops),
                "http_errors": {
                    str(status): count
                    for status, count in self.http_errors.items()
                },
            }


class AdmissionGate:
    """Bounded admission in front of ``workers`` run slots.

    :meth:`admit` never blocks: once ``workers × queue_depth`` requests
    are admitted it raises :class:`~repro.errors.OverloadedError` (the
    transport answers 503).  :meth:`acquire` waits for *any* free run
    slot, so a request never queues behind one slow request while
    another slot is idle.  :meth:`release` frees both.
    """

    def __init__(self, workers: int, queue_depth: int):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")  # repro: noqa[EXC-TAXONOMY] -- startup config validation; cmd_serve reports and exits
        if queue_depth < 1:
            raise ValueError(  # repro: noqa[EXC-TAXONOMY] -- startup config validation; cmd_serve reports and exits
                f"need a queue depth of at least one, got {queue_depth}"
            )
        self.workers = workers
        self.capacity = workers * queue_depth
        self.admitted = 0
        self.rejections = 0
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(workers)

    def admit(self) -> None:
        """Count one request in, or raise
        :class:`~repro.errors.OverloadedError` when the gate is full."""
        with self._lock:
            if self.admitted >= self.capacity:
                self.rejections += 1
                raise OverloadedError(
                    f"{self.admitted} requests already admitted "
                    f"({self.workers} run slots); retry shortly"
                )
            self.admitted += 1

    def acquire(self) -> None:
        """Wait for any free run slot."""
        self._slots.acquire()

    def release(self) -> None:
        """Free the run slot and the admission of one request."""
        self._slots.release()
        with self._lock:
            self.admitted -= 1

    def counters(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "queue_capacity": self.capacity,
                "admitted": self.admitted,
                "rejections": self.rejections,
            }


class ServingCore:
    """Transport-independent serving state behind every HTTP front.

    Owns the :class:`~repro.session.ArtifactStore`, the one
    :class:`~repro.Connection` every handler thread shares (the
    resolved structures are immutable, so reads need no private
    state), the :class:`AdmissionGate`, and the health/stats views.
    The threaded :class:`ReproServer` and the asyncio
    :class:`~repro.server.aio.AsyncReproServer` each wrap one core and
    add only connection handling — which is why ``--async`` changes
    nothing on the wire.

    Args:
        database: the served :class:`~repro.data.database.Database`
            (or a plain mapping of relation names to tuple iterables).
        engine: execution engine for the shared store (name, instance,
            or ``None`` for the active engine's kind).
        workers: how many requests do query work at once.
        capacity: per-kind artifact-cache capacity of the shared store.
        default_query: a query (text or parsed) backing requests that
            carry none; ``None`` means every request must name its
            query.
        read_only: refuse ``insert``/``delete``/``apply`` with
            :class:`~repro.errors.ReadOnlyError` (HTTP 403).
        queue_depth: pending requests per run slot (``None`` →
            :data:`DEFAULT_QUEUE_DEPTH`); with ``workers ×
            queue_depth`` admitted, admission fails with
            :class:`~repro.errors.OverloadedError` (HTTP 503).
        wal: path of a :class:`~repro.data.wal.WriteAheadLog` — the
            log is replayed over ``database`` at boot (crash
            recovery), then every applied delta is appended *before*
            it touches the store, so a crash mid-apply replays to the
            exact pre-crash version.
        retain_versions: MVCC snapshot window of the shared store
            (``None`` → :data:`repro.session.mvcc.DEFAULT_RETAIN`).
    """

    def __init__(
        self,
        database,
        engine=None,
        workers: int = 4,
        capacity: int | None = 64,
        default_query=None,
        read_only: bool = False,
        queue_depth: int | None = None,
        wal: str | None = None,
        retain_versions: int | None = None,
        chaos: str | None = None,
    ):
        self.gate = AdmissionGate(
            workers,
            DEFAULT_QUEUE_DEPTH if queue_depth is None else queue_depth,
        )
        # Arm fault injection for this process; close() disarms it.
        self.chaos = chaos
        if chaos is not None:
            from repro.chaos import faults

            faults.arm(chaos)
        if not isinstance(database, Database):
            database = Database(database)
        self.wal = None
        db_version = 0
        if wal is not None:
            # Recovery before anything is built: replay the log over
            # the boot database (seeding a fresh log with a version-0
            # snapshot so it is self-contained), so the store starts at
            # the exact pre-crash version.
            from repro.data.wal import WriteAheadLog

            self.wal = WriteAheadLog(wal)
            database, db_version = self.wal.recover(
                database, seed=True
            )
        if isinstance(default_query, str):
            default_query = parse_query(default_query)
        if default_query is not None:
            # Fail at startup, not once per request.
            database.validate_for(default_query)
        if engine is None:
            from repro.engine.registry import get_engine

            engine = get_engine().name
        self.store = ArtifactStore(
            database,
            engine=engine,
            capacity=capacity,
            db_version=db_version,
            retain_versions=retain_versions,
            wal=self.wal,
        )
        self.default_query = default_query
        self.read_only = bool(read_only)
        self.workers = workers
        self.connection = Connection(self.store)

    # -- serving -----------------------------------------------------------

    def execute(self, request: SessionRequest) -> SessionResponse:
        """Serve one protocol request on the first free run slot.

        Raises :class:`~repro.errors.OverloadedError` when bounded
        admission refuses the request; the transport answers 503 with
        ``Retry-After`` instead of queueing unboundedly.
        """
        if self.read_only and request.op in MUTATION_OPS:
            from repro.errors import ReadOnlyError

            return SessionResponse(
                op=request.op,
                ok=False,
                error="server is read-only: mutations are disabled",
                error_type=ReadOnlyError.__name__,
            )
        self.gate.admit()
        self.gate.acquire()
        try:
            return execute(
                self.connection,
                request,
                default_query=self.default_query,
            )
        finally:
            self.gate.release()

    def close(self) -> None:
        """Sync and close the WAL, and disarm fault injection."""
        if self.wal is not None:
            self.wal.close()
        if self.chaos is not None:
            from repro.chaos import faults

            faults.disarm()

    # -- observability -----------------------------------------------------

    def health(self, front: str) -> dict:
        from repro import __version__

        return {
            "ok": True,
            "service": "repro",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "engine": self.store.engine.name,
            "workers": self.workers,
            "front": front,
            "read_only": self.read_only,
            "db_version": self.store.db_version,
            "durable": self.wal is not None,
            "default_query": (
                str(self.default_query)
                if self.default_query is not None
                else None
            ),
        }

    def stats(self, server_counters: dict) -> dict:
        """Store counters + wire ops.

        ``workers.totals`` holds the store's request/work and per-kind
        cache counters (:meth:`repro.Connection.stats` without
        ``"store"``) — every worker thread serves through the one
        store.  ``dispatch`` carries the admission gate's view
        (admitted and rejected requests).
        """
        totals = self.connection.stats()
        store_stats = totals.pop("store")
        return {
            "server": server_counters,
            "store": store_stats,
            "workers": {
                "count": self.workers,
                "totals": totals,
            },
            # The at-a-glance durability view (satellite of the WAL
            # work): current version, how many MVCC snapshots pinned
            # views can still read, and the WAL high-water mark
            # (``None`` = serving without a log).
            "durability": {
                "db_version": self.store.db_version,
                "snapshots_retained": store_stats.get("mvcc", {}).get(
                    "retained", 0
                ),
                "wal_seq": (
                    self.wal.last_seq if self.wal is not None else None
                ),
            },
            "dispatch": self.gate.counters(),
        }


class _Handler(BaseHTTPRequestHandler):
    """One request; the interesting state lives on ``self.server``."""

    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    @property
    def repro(self) -> "ReproServer":
        return self.server.repro_server  # type: ignore[attr-defined]

    def setup(self) -> None:
        # The socket timeout must be set before StreamRequestHandler
        # wraps it in rfile/wfile: a client stalling mid-body (or
        # never draining its response) then trips TimeoutError, which
        # handle_one_request turns into close_connection — freeing the
        # serving thread instead of pinning it forever.
        self.timeout = self.repro.request_timeout
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.repro.verbose:
            super().log_message(format, *args)

    def _reply(
        self, status: int, body: bytes, headers: dict | None = None
    ) -> None:
        if status >= 400:
            self.repro.counters.count_error(status)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Head and body leave in ONE write: a second small send() waits
        # on Nagle for the client's delayed ACK, ≈ 40 ms per reply.
        head = b""
        if self.request_version != "HTTP/0.9":  # 0.9 replies are bare
            self._headers_buffer.append(b"\r\n")
            head = b"".join(self._headers_buffer)
            self._headers_buffer = []
        self.wfile.write(head + body)

    def _reply_json(self, status: int, payload: dict) -> None:
        self._reply(
            status, json.dumps(payload, default=str).encode("utf-8")
        )

    # -- GET: observability ------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            self._reply_json(200, self.repro.health())
        elif self.path == "/stats":
            self._reply_json(200, self.repro.stats())
        elif self.path.rstrip("/") == SESSION_ROUTE.rstrip("/"):
            self._reply(
                405,
                error_body(f"use POST for {SESSION_ROUTE}"),
            )
        else:
            self._reply(
                404,
                error_body(
                    f"unknown path {self.path!r}; serving "
                    f"POST {SESSION_ROUTE}, GET /healthz, GET /stats"
                ),
            )

    # -- POST: the protocol ------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            length = int(self.headers.get("Content-Length", ""))
            if length < 0:
                raise ValueError(length)  # repro: noqa[EXC-TAXONOMY] -- local control flow, caught two lines down
        except ValueError:
            # Without a sane length the body framing is unknown (e.g.
            # chunked encoding), so the connection cannot be reused —
            # close it rather than parse body bytes as the next
            # request.  A negative length must not reach rfile.read(),
            # which would block until client EOF.
            self.close_connection = True
            self._reply(
                411, error_body("request needs a Content-Length")
            )
            return
        if length > MAX_BODY_BYTES:
            # Drain (bounded) so the client can finish writing and
            # read the error instead of dying on a broken pipe; truly
            # absurd lengths just get the connection closed.
            remaining = min(length, 16 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            self._reply(
                413,
                error_body(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                ),
            )
            return
        raw = self.rfile.read(length)
        # The body is read even when the path is wrong: on a keep-alive
        # socket unread body bytes would parse as the next request.
        if self.path.rstrip("/") != SESSION_ROUTE.rstrip("/"):
            self._reply(
                404,
                error_body(
                    f"unknown path {self.path!r}; "
                    f"POST requests go to {SESSION_ROUTE}"
                ),
            )
            return
        # Malformed bodies are client errors: a structured 400, never a
        # 500/traceback (the request may be hostile or just confused).
        try:
            request = SessionRequest.from_json(raw.decode("utf-8"))
        except UnicodeDecodeError:
            self._reply(400, error_body("request body is not UTF-8"))
            return
        except ProtocolError as error:
            self._reply(400, error_body(str(error)))
            return
        self.repro.counters.count_request(request.op)
        try:
            response = self.repro.execute(request)
        except OverloadedError as error:
            # Bounded admission refused the request: it was never
            # started, so retrying after a short backoff is safe.
            self._reply(
                503,
                error_body(
                    str(error),
                    request.op,
                    OverloadedError.__name__,
                ),
                headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
            return
        body = response.to_json().encode("utf-8")
        if not response.ok and response.error_type == "ReadOnlyError":
            # Mutations on a --read-only server are a *policy* refusal,
            # not a protocol failure: HTTP 403 with the same structured
            # body, so clients re-raise ReadOnlyError like any library
            # error.
            self._reply(403, body)
        else:
            self._reply(200, body)


class _WakeableHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that sleeps until there is work.

    The stdlib loop polls for shutdown every 0.5 s, so each
    ``shutdown()`` waits out part of a poll.  This loop blocks in
    ``select`` with no timeout on the listening socket and on one end
    of a socket pair; ``shutdown()`` writes a byte to the other end,
    so the loop wakes at once.  The wake byte never reaches HTTP.
    """

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._wake_in, self._wake_out = socket.socketpair()
        self._stopping = False
        self._stopped = threading.Event()

    def serve_forever(self) -> None:  # type: ignore[override]
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_in, selectors.EVENT_READ)
                while not self._stopping:
                    ready = selector.select()
                    if self._stopping:
                        break
                    for key, _events in ready:
                        if key.fileobj is self:
                            self._handle_request_noblock()
                        else:
                            self._wake_in.recv(64)  # a stale wake
                    self.service_actions()
        finally:
            self._stopping = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stopping = True
        try:
            self._wake_out.send(b"\0")
        except OSError:
            pass  # closed by server_close(): the loop is already gone
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_in.close()
        self._wake_out.close()


class ReproServer:
    """A threaded HTTP server for one database.

    Args:
        database: the served :class:`~repro.data.database.Database` (or
            a plain mapping of relation names to tuple iterables).
        engine: execution engine for the shared store (name, instance,
            or ``None`` for a fresh instance of the active engine's
            kind — worker-shared, like :func:`repro.connect`).
        workers: the number of requests doing query work concurrently.
        capacity: per-kind artifact-cache capacity of the shared store.
        default_query: a query (text or parsed) backing requests that
            carry none — the HTTP twin of ``repro session``'s bound
            query.  ``None`` means every request must name its query.
        host / port: bind address; ``port=0`` picks an ephemeral port
            (see :attr:`url`).
        verbose: log one line per request to stderr.
        read_only: refuse ``insert``/``delete`` with a structured
            HTTP 403 (:class:`~repro.errors.ReadOnlyError`).
        queue_depth: pending requests per run slot; with ``workers ×
            queue_depth`` admitted → HTTP 503 + ``Retry-After``
            (:class:`~repro.errors.OverloadedError`).
        wal: write-ahead-log path — replayed at boot, appended before
            every apply (see :class:`ServingCore`).
        retain_versions: MVCC snapshot window of the shared store
            (see :class:`ServingCore`).
        request_timeout: socket read/write timeout per connection,
            seconds — stalled clients lose the connection instead of
            pinning a serving thread.

    Usable as a context manager: ``with ReproServer(db) as server:``
    starts a background serving thread and shuts it down on exit.  Call
    :meth:`serve_forever` instead to serve in the foreground (the CLI).
    """

    def __init__(
        self,
        database,
        engine=None,
        workers: int = 4,
        capacity: int | None = 64,
        default_query=None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        read_only: bool = False,
        queue_depth: int | None = None,
        wal: str | None = None,
        retain_versions: int | None = None,
        chaos: str | None = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ):
        self.core = ServingCore(
            database,
            engine=engine,
            workers=workers,
            capacity=capacity,
            default_query=default_query,
            read_only=read_only,
            queue_depth=queue_depth,
            wal=wal,
            retain_versions=retain_versions,
            chaos=chaos,
        )
        self.verbose = verbose
        self.counters = _ServerCounters()
        self.request_timeout = request_timeout
        self._httpd = _WakeableHTTPServer((host, port), _Handler)
        self._httpd.repro_server = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # -- the wrapped core --------------------------------------------------

    @property
    def store(self):
        return self.core.store

    @property
    def workers(self) -> int:
        return self.core.workers

    @property
    def default_query(self):
        return self.core.default_query

    @property
    def read_only(self) -> bool:
        return self.core.read_only

    # -- addresses ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients connect to (``repro.connect(server.url)``)."""
        return f"http://{self.host}:{self.port}"

    # -- serving -----------------------------------------------------------

    def execute(self, request: SessionRequest) -> SessionResponse:
        """Serve one protocol request through the core (may raise
        :class:`~repro.errors.OverloadedError` — the handler answers
        503)."""
        return self.core.execute(request)

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or KeyboardInterrupt)."""
        self._httpd.serve_forever()

    def start(self) -> "ReproServer":
        """Serve on a daemon background thread (tests, benchmarks)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True
            )
            self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Begin shutdown without blocking (signal-handler-safe).

        ``httpd.shutdown()`` blocks until ``serve_forever`` exits, so a
        SIGTERM handler running on the serving thread's process must
        hand it off; the caller then runs :meth:`shutdown` to finish.
        """
        threading.Thread(
            target=self._httpd.shutdown, daemon=True
        ).start()

    def shutdown(self) -> None:
        """Stop accepting, join the serving thread, close the WAL.
        Idempotent."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.core.close()

    def close(self) -> None:
        """Alias for :meth:`shutdown`."""
        self.shutdown()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- observability -----------------------------------------------------

    def health(self) -> dict:
        return self.core.health(front="threads")

    def stats(self) -> dict:
        """Store build/cache counters + session counters + wire ops (see
        :meth:`ServingCore.stats`)."""
        return self.core.stats(self.counters.as_dict())

    def __repr__(self) -> str:
        return (
            f"ReproServer({self.url}, engine="
            f"{self.store.engine.name!r}, workers={self.workers})"
        )


__all__ = [
    "AdmissionGate",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_REQUEST_TIMEOUT",
    "MAX_BODY_BYTES",
    "RETRY_AFTER_SECONDS",
    "ReproServer",
    "SESSION_ROUTE",
    "ServingCore",
    "error_body",
]
