"""The asyncio serving front: ``repro serve --async``.

The threaded front (:class:`~repro.server.http.ReproServer`) spends
one OS thread per open connection, so its concurrency ceiling is
thread-pool scale and a slow client occupies a whole thread while it
dribbles bytes.  This front multiplexes *all* connections onto one
event loop: an :func:`asyncio.start_server` accept loop parses
HTTP/1.1 itself (keep-alive, pipelining-safe framing, per-read
timeouts, a connection ceiling) and hands each decoded
:class:`~repro.session.SessionRequest` to the same
:class:`~repro.server.http.ServingCore` the threaded front wraps —
same admission gate, same wire shapes.
Connections are cheap (a coroutine and a buffer, no thread), so
thousands of keep-alive clients can sit open while at most
``workers × queue_depth`` requests are actually admitted; the gap
between the two fronts is measured by the ledger's traced ladder
(``benchmarks/ledger/run.py --trace 1``: ``server.threads.*`` vs
``server.aio.*``).

Framing is the simple profile the session protocol needs: heads are
read with ``readuntil(b"\\r\\n\\r\\n")`` (bounded by
:data:`MAX_HEAD_BYTES`), bodies with ``readexactly(Content-Length)``
— chunked bodies are rejected with 411 like the threaded front.
Because the stream reader buffers, a client that pipelines several
requests in one write gets each answered in order from the same
buffer, no bytes lost between requests.  Every read and every write
drain carries ``request_timeout``, so a stalled client costs one idle
coroutine, never a stuck loop.

Overload shows up in exactly two places, both structured: admission
full → HTTP 503 + ``Retry-After`` (:class:`~repro.errors.
OverloadedError`, as on the threaded front), and the connection
ceiling → the same 503 before the request is even read.  Blocking
query work never runs on the loop: ``core.execute`` is bridged onto a
thread pool sized to the admission bound, so the loop stays free to
accept, frame, and time out sockets.

Start one from Python (or ``repro serve --async`` from a shell)::

    from repro.server.aio import AsyncReproServer

    with AsyncReproServer({"R": {(1, 2)}}, workers=4) as server:
        conn = repro.connect(server.url)   # same client, same wire
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import OverloadedError, ProtocolError
from repro.server.http import (
    DEFAULT_REQUEST_TIMEOUT,
    MAX_BODY_BYTES,
    RETRY_AFTER_SECONDS,
    SESSION_ROUTE,
    ServingCore,
    _ServerCounters,
    error_body,
)
from repro.session.protocol import SessionRequest

#: Default cap on simultaneously open connections.  Far above the
#: threaded front's thread-pool scale, far below fd exhaustion; the
#: ceiling answers 503 *before* reading the request, so a connection
#: flood degrades loudly instead of starving accepted clients.
DEFAULT_MAX_CONNECTIONS = 1024

#: Bound on one request head (request line + headers).  A session
#: request's head is a few hundred bytes; this is also the stream
#: reader's buffer limit, so an unbounded head cannot balloon memory.
MAX_HEAD_BYTES = 32 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Content Too Large",
    503: "Service Unavailable",
}


class AsyncReproServer:
    """An event-loop HTTP server over one :class:`ServingCore`.

    Same constructor surface, routes, and wire shapes as the threaded
    :class:`~repro.server.http.ReproServer` — ``--async`` is a front
    swap, not a protocol change — plus the knobs that only make sense
    when connections are multiplexed:

    Args:
        max_connections: ceiling on simultaneously open connections;
            excess connections get an immediate structured 503 with
            ``Retry-After`` and are closed.
        request_timeout: per-read/per-write-drain timeout, seconds.  A
            connection that stalls past it is closed.
        drain_timeout: on shutdown, how long to wait for in-flight
            requests to finish before cancelling their connections.

    The loop runs on a daemon background thread (``start()`` /
    context manager), so the blocking API matches the threaded front;
    ``serve_forever()`` serves in the foreground for the CLI.
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
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        drain_timeout: float = 10.0,
    ):
        if max_connections < 1:
            raise ValueError(  # repro: noqa[EXC-TAXONOMY] -- startup config validation; cmd_serve reports and exits
                f"need room for at least one connection, "
                f"got {max_connections}"
            )
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
        self.max_connections = max_connections
        self.drain_timeout = drain_timeout
        self.clean_shutdown: bool | None = None
        self.connections_peak = 0
        self.ceiling_rejections = 0
        # Query work is synchronous (the core, the engines); it runs on
        # this pool, sized to the admission bound — beyond it admission
        # rejects anyway, so more threads would only queue twice.
        self._executor = ThreadPoolExecutor(
            max_workers=min(self.core.gate.capacity, 128) + 4,
            thread_name_prefix="repro-aio",
        )
        self._requested = (host, port)
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None
        self._conns: dict = {}  # task -> {"busy": bool}; loop-thread only
        self._draining = False
        self._drained_clean = True
        self._closed = False

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
        return (self._address or self._requested)[0]

    @property
    def port(self) -> int:
        return (self._address or self._requested)[1]

    @property
    def url(self) -> str:
        """Base URL clients connect to (``repro.connect(server.url)``)."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AsyncReproServer":
        """Run the loop on a daemon background thread; returns once the
        listening socket is bound (or raises the bind error)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop,
                daemon=True,
                name="repro-aio-loop",
            )
            self._thread.start()
            self._ready.wait()
            if self._boot_error is not None:
                self._thread.join()
                self._thread = None
                self._executor.shutdown(wait=False)
                self.core.close()
                raise self._boot_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # pragma: no cover - loop bugs
            self._boot_error = error
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        host, port = self._requested
        try:
            server = await asyncio.start_server(
                self._handle_connection,
                host,
                port,
                limit=MAX_HEAD_BYTES,
            )
        except OSError as error:
            self._boot_error = error
            self._ready.set()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        await self._stop.wait()
        self._draining = True
        server.close()
        await server.wait_closed()
        await self._drain_connections()

    async def _drain_connections(self) -> None:
        """Idle connections are cancelled outright; busy ones get
        ``drain_timeout`` to finish their in-flight request and write
        the response (the SIGTERM contract of ``repro serve``)."""
        for task, state in list(self._conns.items()):
            if not state["busy"]:
                task.cancel()
        tasks = list(self._conns)
        if not tasks:
            return
        _done, pending = await asyncio.wait(
            tasks, timeout=self.drain_timeout
        )
        if pending:
            self._drained_clean = False
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

    def request_shutdown(self) -> None:
        """Begin shutdown without blocking (signal-handler-safe); the
        caller then runs :meth:`shutdown` to finish."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed: nothing left to stop

    def serve_forever(self) -> None:
        """Serve in the foreground until :meth:`request_shutdown` (the
        CLI's SIGTERM handler) or KeyboardInterrupt."""
        self.start()
        thread = self._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=0.5)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop accepting, drain connections, close the WAL.  Sets
        :attr:`clean_shutdown`: ``True`` when every in-flight request
        finished within ``drain_timeout``.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout + self.drain_timeout)
            self._thread = None
        self._executor.shutdown(wait=False)
        self.core.close()
        self.clean_shutdown = self._drained_clean

    def close(self, timeout: float = 10.0) -> None:
        """Alias for :meth:`shutdown`."""
        self.shutdown(timeout=timeout)

    def __enter__(self) -> "AsyncReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- the accept path ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        if self._draining or len(self._conns) >= self.max_connections:
            # Reject before reading anything: under a connection flood
            # the cheapest honest answer is a structured 503 so the
            # client backs off, instead of an opaque RST or a slot
            # taken from an accepted client.
            self.ceiling_rejections += 1
            try:
                await self._send(
                    writer,
                    503,
                    error_body(
                        f"connection ceiling reached "
                        f"({self.max_connections} open); retry shortly",
                        error_type=OverloadedError.__name__,
                    ),
                    keep_alive=False,
                    retry_after=True,
                )
            except (ConnectionError, OSError, TimeoutError):
                pass
            writer.close()
            return
        task = asyncio.current_task()
        state = {"busy": False}
        self._conns[task] = state
        self.connections_peak = max(
            self.connections_peak, len(self._conns)
        )
        try:
            await self._serve_connection(reader, writer, state)
        except asyncio.CancelledError:
            pass  # drain cancelled an idle connection
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            TimeoutError,
            ConnectionError,
            OSError,
        ):
            pass  # client went away or stalled: drop the connection
        finally:
            self._conns.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer, state) -> None:
        """One keep-alive connection: frame requests off the buffer
        until the client closes, stalls, or asks to close."""
        while not self._draining:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"),
                    self.request_timeout,
                )
            except asyncio.IncompleteReadError:
                return  # client closed between requests: clean end
            except asyncio.LimitOverrunError:
                await self._send(
                    writer,
                    400,
                    error_body(
                        f"request head exceeds {MAX_HEAD_BYTES} bytes"
                    ),
                    keep_alive=False,
                )
                return
            # Busy from first head byte to last response byte: drain
            # waits for this request instead of cancelling it.
            state["busy"] = True
            try:
                keep_alive = await self._serve_request(
                    reader, writer, head
                )
            finally:
                state["busy"] = False
            if not keep_alive:
                return

    async def _serve_request(self, reader, writer, head: bytes) -> bool:
        """Parse one framed request and answer it; whether the
        connection may carry another."""
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            await self._send(
                writer,
                400,
                error_body(f"malformed request line {lines[0]!r}"),
                keep_alive=False,
            )
            return False
        method, path, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        if method == "GET":
            return await self._serve_get(writer, path, keep_alive)
        if method != "POST":
            await self._send(
                writer,
                405,
                error_body(f"unsupported method {method!r}"),
                keep_alive=keep_alive,
            )
            return keep_alive
        try:
            length = int(headers.get("content-length", ""))
            if length < 0:
                raise ValueError(length)  # repro: noqa[EXC-TAXONOMY] -- local control flow, caught two lines down
        except ValueError:
            # Unknown framing (e.g. chunked): the connection cannot be
            # reused, the next "request" would be body bytes.
            await self._send(
                writer,
                411,
                error_body("request needs a Content-Length"),
                keep_alive=False,
            )
            return False
        if length > MAX_BODY_BYTES:
            await self._drain_body(reader, length)
            await self._send(
                writer,
                413,
                error_body(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                ),
                keep_alive=False,
            )
            return False
        raw = await asyncio.wait_for(
            reader.readexactly(length), self.request_timeout
        )
        # The body is read even when the path is wrong: on a keep-alive
        # socket unread body bytes would parse as the next request.
        if path.rstrip("/") != SESSION_ROUTE.rstrip("/"):
            await self._send(
                writer,
                404,
                error_body(
                    f"unknown path {path!r}; "
                    f"POST requests go to {SESSION_ROUTE}"
                ),
                keep_alive=keep_alive,
            )
            return keep_alive
        try:
            request = SessionRequest.from_json(raw.decode("utf-8"))
        except UnicodeDecodeError:
            await self._send(
                writer,
                400,
                error_body("request body is not UTF-8"),
                keep_alive=keep_alive,
            )
            return keep_alive
        except ProtocolError as error:
            await self._send(
                writer,
                400,
                error_body(str(error)),
                keep_alive=keep_alive,
            )
            return keep_alive
        self.counters.count_request(request.op)
        try:
            # Query work is blocking; off the loop it goes.  Admission
            # happens inside, so a full fleet rejects in microseconds
            # and the executor never piles up past the gate's capacity.
            response = await self._loop.run_in_executor(
                self._executor, self.core.execute, request
            )
        except OverloadedError as error:
            await self._send(
                writer,
                503,
                error_body(
                    str(error),
                    request.op,
                    OverloadedError.__name__,
                ),
                keep_alive=keep_alive,
                retry_after=True,
            )
            return keep_alive
        body = response.to_json().encode("utf-8")
        if not response.ok and response.error_type == "ReadOnlyError":
            await self._send(
                writer, 403, body, keep_alive=keep_alive
            )
        else:
            await self._send(
                writer, 200, body, keep_alive=keep_alive
            )
        return keep_alive

    async def _serve_get(self, writer, path: str, keep_alive: bool) -> bool:
        if path == "/healthz":
            import json

            body = json.dumps(self.health(), default=str).encode()
            await self._send(
                writer, 200, body, keep_alive=keep_alive
            )
        elif path == "/stats":
            import json

            # Stats take the store and gate locks: off the loop too.
            stats = await self._loop.run_in_executor(
                self._executor, self.stats
            )
            body = json.dumps(stats, default=str).encode()
            await self._send(
                writer, 200, body, keep_alive=keep_alive
            )
        elif path.rstrip("/") == SESSION_ROUTE.rstrip("/"):
            await self._send(
                writer,
                405,
                error_body(f"use POST for {SESSION_ROUTE}"),
                keep_alive=keep_alive,
            )
        else:
            await self._send(
                writer,
                404,
                error_body(
                    f"unknown path {path!r}; serving "
                    f"POST {SESSION_ROUTE}, GET /healthz, GET /stats"
                ),
                keep_alive=keep_alive,
            )
        return keep_alive

    async def _drain_body(self, reader, length: int) -> None:
        """Read (bounded) past an oversized body so the client can
        finish writing and see the 413 instead of a broken pipe."""
        remaining = min(length, 16 * MAX_BODY_BYTES)
        while remaining > 0:
            chunk = await asyncio.wait_for(
                reader.read(min(remaining, 1 << 16)),
                self.request_timeout,
            )
            if not chunk:
                break
            remaining -= len(chunk)

    async def _send(
        self,
        writer,
        status: int,
        body: bytes,
        *,
        keep_alive: bool,
        retry_after: bool = False,
    ) -> None:
        if status >= 400:
            self.counters.count_error(status)
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if retry_after:
            head.append(f"Retry-After: {RETRY_AFTER_SECONDS}")
        writer.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body
        )
        # The drain timeout is the *write* half of slow-client
        # robustness: a client that never reads its response trips it
        # once the transport buffer fills.
        await asyncio.wait_for(writer.drain(), self.request_timeout)

    # -- observability -----------------------------------------------------

    def health(self) -> dict:
        return dict(
            self.core.health(front="async"),
            max_connections=self.max_connections,
        )

    def stats(self) -> dict:
        """Core stats plus the front's multiplexing counters."""
        stats = self.core.stats(self.counters.as_dict())
        stats["front"] = {
            "kind": "async",
            "connections_open": len(self._conns),
            "connections_peak": self.connections_peak,
            "max_connections": self.max_connections,
            "ceiling_rejections": self.ceiling_rejections,
        }
        return stats

    def __repr__(self) -> str:
        return (
            f"AsyncReproServer({self.url}, engine="
            f"{self.store.engine.name!r}, workers={self.workers}, "
            f"max_connections={self.max_connections})"
        )


__all__ = [
    "AsyncReproServer",
    "DEFAULT_MAX_CONNECTIONS",
    "MAX_HEAD_BYTES",
]
