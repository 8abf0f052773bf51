"""Minimal JSON-over-HTTP framework (FastAPI/uvicorn substitute).

A :class:`Router` maps ``METHOD /path/{param}`` templates to handler
callables. Handlers receive a :class:`Request` and return a
:class:`Response` (or a plain dict, auto-wrapped with status 200). The
router can be served over a real socket via :func:`serve` or exercised
in-process through :class:`repro.api.client.TestClient`.

Serving model
-------------
:func:`serve` boots an :class:`AsyncHTTPServer`: a stdlib-``asyncio``
front end whose event loop only parses requests and writes responses —
every handler runs on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
(``max_workers`` argument, else ``DATALENS_SERVER_WORKERS``; see
:class:`repro.settings.Settings`), so a slow pipeline call never blocks
request intake. Connections are keep-alive (HTTP/1.1) unless the client
sends ``Connection: close``; a request body with Content-Type
``text/csv`` is *streamed*: the handler receives a binary file-like at
``request.stream`` fed from the socket with ~1 MiB of backpressure-bounded
buffering, which is how a chunked-CSV upload far larger than RAM reaches
:func:`repro.dataframe.read_csv_chunked` without ever materializing.

Error mapping
-------------
Inside handlers, raise :class:`HTTPError` for an explicit status. The
dispatcher otherwise maps ``ValueError``/``RuntimeError`` to 400 and
``FileNotFoundError`` to 404; applications can register further typed
mappings with :meth:`Router.map_exception` (e.g. the REST app maps
:class:`repro.core.DatasetNotFoundError` to 404). Every *other*
exception — including a bare ``KeyError``, which historically masqueraded
as 404 — is a handler bug: it returns a 500 JSON body and logs the
traceback, keeping the socket alive.

Path parameters are URL-decoded (``unquote``) before reaching handlers,
so dataset names with spaces or non-ASCII characters round-trip.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import logging
import math
import re
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable
from urllib.parse import parse_qs, unquote, urlsplit

from ..core import faults as _faults
from ..settings import resolve

logger = logging.getLogger(__name__)

#: Request bodies with this content type are streamed to the handler.
STREAMING_CONTENT_TYPES = ("text/csv",)

#: ``Retry-After`` seconds advertised on overload/deadline responses.
RETRY_AFTER_SECONDS = 1


def sanitize_json(value: Any) -> Any:
    """Replace non-finite floats with None, recursively.

    ``json.dumps`` happily emits ``NaN`` / ``Infinity`` — JavaScript
    literals that RFC 8259 forbids and strict parsers reject — so every
    response body passes through here before serialization. Statistics
    over degenerate columns (std of one value, correlation of constants)
    are where they come from; ``null`` is the faithful wire encoding.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: sanitize_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(item) for item in value]
    return value


@dataclass
class Request:
    """One parsed HTTP request.

    ``headers`` keys are lower-cased. ``stream`` is a binary file-like
    holding the raw body for streaming content types (``text/csv``),
    ``None`` otherwise; ``body`` is the parsed JSON payload (or raw text
    for other non-streaming content types).
    """

    method: str
    path: str
    path_params: dict[str, str] = field(default_factory=dict)
    query: dict[str, str] = field(default_factory=dict)
    body: Any = None
    headers: dict[str, str] = field(default_factory=dict)
    stream: Any = None


@dataclass
class Response:
    """JSON response payload.

    ``headers`` carries extra response headers (e.g. ``Retry-After`` on
    429/503 overload replies) merged after the framework's own.
    """

    status: int = 200
    body: Any = None
    headers: dict[str, str] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        # allow_nan=False backstops the sanitizer: a non-finite float
        # that slips past it (e.g. inside an unexpected container type)
        # raises loudly instead of emitting invalid JSON.
        return json.dumps(
            sanitize_json(self.body), default=str, allow_nan=False
        ).encode("utf-8")


class HTTPError(Exception):
    """Raise inside handlers to produce a non-200 JSON error response."""

    def __init__(
        self,
        status: int,
        detail: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = headers or {}


Handler = Callable[[Request], "Response | dict | list"]

_PARAM_PATTERN = re.compile(r"\{(\w+)\}")


def _compile_template(template: str) -> re.Pattern:
    pattern = _PARAM_PATTERN.sub(r"(?P<\1>[^/]+)", template.rstrip("/") or "/")
    return re.compile(f"^{pattern}$")


class Router:
    """Method + path-template dispatch table."""

    #: Built-in exception → status mappings, checked after registered ones.
    _DEFAULT_ERROR_MAP: tuple[tuple[type, int], ...] = (
        (FileNotFoundError, 404),
        (ValueError, 400),
        (RuntimeError, 400),
    )

    def __init__(self) -> None:
        self._routes: list[tuple[str, re.Pattern, Handler]] = []
        self._error_map: list[tuple[type, int, float | None]] = []

    def add(self, method: str, template: str, handler: Handler) -> None:
        self._routes.append((method.upper(), _compile_template(template), handler))

    def get(self, template: str) -> Callable[[Handler], Handler]:
        return self._decorator("GET", template)

    def post(self, template: str) -> Callable[[Handler], Handler]:
        return self._decorator("POST", template)

    def put(self, template: str) -> Callable[[Handler], Handler]:
        return self._decorator("PUT", template)

    def _decorator(self, method: str, template: str) -> Callable[[Handler], Handler]:
        def register(handler: Handler) -> Handler:
            self.add(method, template, handler)
            return handler

        return register

    # ------------------------------------------------------------------
    def map_exception(
        self,
        exc_type: type,
        status: int,
        retry_after: float | None = None,
    ) -> None:
        """Map a typed handler exception to an HTTP status.

        Registered mappings win over the built-in defaults and are
        checked in registration order (register subclasses first).
        ``retry_after`` adds a ``Retry-After`` header to the response —
        use it for transient conditions (overload, shutdown) the client
        should simply retry.
        """
        self._error_map.append((exc_type, status, retry_after))

    def _status_for(self, error: Exception) -> tuple[int, float | None] | None:
        for exc_type, status, retry_after in self._error_map:
            if isinstance(error, exc_type):
                return status, retry_after
        for exc_type, status in self._DEFAULT_ERROR_MAP:
            if isinstance(error, exc_type):
                return status, None
        return None

    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Route a request; 404 unknown path, 405 wrong method."""
        path = request.path.rstrip("/") or "/"
        path_exists = False
        for method, pattern, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            path_exists = True
            if method != request.method.upper():
                continue
            # Templates match the *encoded* path (%2F never splits a
            # segment); the captured values are decoded here so handlers
            # see real dataset names — spaces, unicode, and all.
            request.path_params = {
                name: unquote(value)
                for name, value in match.groupdict().items()
            }
            try:
                outcome = handler(request)
            except HTTPError as error:
                return Response(
                    error.status, {"detail": error.detail}, dict(error.headers)
                )
            except Exception as error:  # noqa: BLE001 — mapped below; an
                # unmapped exception is a handler bug and must surface as
                # a 500 JSON body, not a dead socket or a bogus 404.
                mapped = self._status_for(error)
                if mapped is not None:
                    status, retry_after = mapped
                    headers = (
                        {"Retry-After": str(int(retry_after))}
                        if retry_after is not None
                        else {}
                    )
                    return Response(status, {"detail": str(error)}, headers)
                logger.exception(
                    "unhandled error in handler for %s %s",
                    request.method,
                    request.path,
                )
                return Response(
                    500, {"detail": f"{type(error).__name__}: {error}"}
                )
            if isinstance(outcome, Response):
                return outcome
            return Response(200, outcome)
        if path_exists:
            return Response(405, {"detail": "method not allowed"})
        return Response(404, {"detail": f"no route for {request.path}"})


# ----------------------------------------------------------------------
# Streaming request bodies
# ----------------------------------------------------------------------
class _RequestBodyStream(io.RawIOBase):
    """Socket → handler byte bridge with bounded buffering.

    The event loop feeds chunks via :meth:`feed` (a coroutine that
    suspends once ``HIGH_WATER`` bytes are buffered — backpressure);
    the handler thread consumes through the blocking file-like API.
    ``feed_eof``/``abort`` wake a blocked reader, so a cancelled upload
    surfaces as a short read instead of a hang.
    """

    HIGH_WATER = 1 << 20  # pause the socket pump at 1 MiB buffered
    LOW_WATER = 1 << 19

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__()
        self._loop = loop
        self._cond = threading.Condition()
        self._chunks: deque[memoryview] = deque()
        self._buffered = 0
        self._eof = False
        self._drain_waiter: asyncio.Future | None = None

    def readable(self) -> bool:
        return True

    # -- event-loop side ------------------------------------------------
    async def feed(self, chunk: bytes) -> None:
        with self._cond:
            self._chunks.append(memoryview(chunk))
            self._buffered += len(chunk)
            self._cond.notify()
            waiter = None
            if self._buffered >= self.HIGH_WATER and self._drain_waiter is None:
                waiter = self._drain_waiter = self._loop.create_future()
        if waiter is not None:
            await waiter

    def feed_eof(self) -> None:
        with self._cond:
            self._eof = True
            waiter, self._drain_waiter = self._drain_waiter, None
            self._cond.notify_all()
        if waiter is not None:
            self._loop.call_soon_threadsafe(_resolve_future, waiter)

    abort = feed_eof

    # -- handler-thread side --------------------------------------------
    def readinto(self, buffer) -> int:  # type: ignore[override]
        with self._cond:
            while not self._chunks and not self._eof:
                self._cond.wait()
            if not self._chunks:
                return 0
            chunk = self._chunks[0]
            count = min(len(buffer), len(chunk))
            buffer[:count] = chunk[:count]
            if count == len(chunk):
                self._chunks.popleft()
            else:
                self._chunks[0] = chunk[count:]
            self._buffered -= count
            waiter = None
            if self._buffered <= self.LOW_WATER and self._drain_waiter is not None:
                waiter, self._drain_waiter = self._drain_waiter, None
        if waiter is not None:
            self._loop.call_soon_threadsafe(_resolve_future, waiter)
        return count


def _resolve_future(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


# ----------------------------------------------------------------------
# Asyncio HTTP server
# ----------------------------------------------------------------------
class AsyncHTTPServer:
    """Non-blocking HTTP/1.1 server around a :class:`Router`.

    The event loop runs on a dedicated daemon thread; handlers execute
    on a bounded thread pool via ``run_in_executor``, so the loop stays
    free to accept and parse concurrent requests (the old
    ``ThreadingHTTPServer`` spent one OS thread per in-flight request
    *and* ran handlers on it). ``server_address`` and ``shutdown()``
    keep the stdlib server's management surface.

    Degradation contract: every socket read (request line, headers,
    body) is bounded by ``KEEPALIVE_TIMEOUT``, so a stalled client can
    never pin a connection; ``request_timeout`` (or
    ``DATALENS_REQUEST_TIMEOUT``) bounds handler execution — a request
    over the deadline is answered ``503`` + ``Retry-After`` and the
    connection closed (the worker thread finishes in the background).
    ``shutdown(drain_timeout=)`` stops accepting connections, lets
    in-flight requests finish up to the deadline, then force-cancels —
    it returns True when everything drained cleanly.
    """

    KEEPALIVE_TIMEOUT = 30.0
    READ_CHUNK = 1 << 16
    DEFAULT_DRAIN_TIMEOUT = 5.0

    def __init__(
        self,
        router: Router,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_workers: int | None = None,
        request_timeout: float | None = None,
    ) -> None:
        self.router = router
        self._host = host
        self._port = port
        self.request_timeout = resolve(
            "request_timeout", request_timeout, "request_timeout"
        )
        self._pool = ThreadPoolExecutor(
            max_workers=resolve("server_workers", max_workers, "max_workers"),
            thread_name_prefix="datalens-http",
        )
        self.server_address: tuple[str, int] = (host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight: set[asyncio.Task] = set()
        self._draining = False
        self._drain_timeout = self.DEFAULT_DRAIN_TIMEOUT
        self._drained = True
        self._thread = threading.Thread(
            target=self._run_loop, name="datalens-http-loop", daemon=True
        )

    # ------------------------------------------------------------------
    def start(self) -> "AsyncHTTPServer":
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def shutdown(self, drain_timeout: float | None = None) -> bool:
        """Stop the server, draining in-flight requests first.

        In-flight requests get ``drain_timeout`` seconds (default
        :data:`DEFAULT_DRAIN_TIMEOUT`) to complete; idle keep-alive
        connections are closed immediately, and whatever is still
        running at the deadline is cancelled. Returns True when every
        in-flight request finished before the deadline.
        """
        if drain_timeout is not None:
            self._drain_timeout = max(0.0, drain_timeout)
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop already closing
                pass
        self._thread.join(timeout=self._drain_timeout + 10)
        self._pool.shutdown(wait=False, cancel_futures=True)
        return self._drained

    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover — startup races
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self.server_address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop.wait()
            # Graceful drain: stop accepting, close idle keep-alive
            # connections, give in-flight requests until the deadline,
            # then cancel whatever is left.
            self._draining = True
            server.close()
            await server.wait_closed()
            for task in tuple(self._conn_tasks):
                if task not in self._inflight:
                    task.cancel()
            deadline = self._loop.time() + self._drain_timeout
            while self._inflight and self._loop.time() < deadline:
                await asyncio.sleep(0.02)
            self._drained = not self._inflight
            for task in tuple(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                close = await self._handle_one(reader, writer)
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
            ConnectionError,
        ):
            pass
        except Exception:  # pragma: no cover — defensive: never kill the loop
            logger.exception("connection handler failed")
        finally:
            self._conn_tasks.discard(task)
            self._inflight.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 — peer may already be gone
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; returns True when the connection must close."""
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=self.KEEPALIVE_TIMEOUT
        )
        if not request_line:
            return True
        # From here the connection is serving a request: the graceful
        # drain waits for it instead of cancelling it.
        task = asyncio.current_task()
        self._inflight.add(task)
        try:
            return await self._serve_request(request_line, reader, writer)
        finally:
            self._inflight.discard(task)

    async def _serve_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        if self._draining:
            await self._write_response(
                writer,
                Response(
                    503,
                    {"detail": "server is shutting down"},
                    {"Retry-After": str(RETRY_AFTER_SECONDS)},
                ),
                True,
            )
            return True
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._write_response(
                writer, Response(400, {"detail": "malformed request line"}), True
            )
            return True
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            # Bounded like the request line: a client trickling headers
            # (or stalling mid-request) times the connection out instead
            # of holding it open forever.
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.KEEPALIVE_TIMEOUT
            )
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        connection = headers.get("connection", "").lower()
        close = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"
        )
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            await self._write_response(
                writer, Response(400, {"detail": "invalid Content-Length"}), True
            )
            return True

        parsed = urlsplit(target)
        request = Request(
            method=method,
            path=parsed.path,
            query={
                key: values[0]
                for key, values in parse_qs(parsed.query).items()
            },
            headers=headers,
        )
        content_type = headers.get("content-type", "").partition(";")[0].strip()

        if length and content_type in STREAMING_CONTENT_TYPES:
            # Streamed body: the handler reads from the socket through a
            # bounded bridge; the connection closes afterwards because
            # the handler may not consume every byte.
            response = await self._dispatch_streaming(request, reader, length)
            close = True
        else:
            if length:
                raw = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.KEEPALIVE_TIMEOUT
                )
                if content_type in ("", "application/json"):
                    try:
                        request.body = json.loads(raw)
                    except json.JSONDecodeError:
                        await self._write_response(
                            writer,
                            Response(400, {"detail": "invalid JSON body"}),
                            close,
                        )
                        return close
                else:
                    request.body = raw.decode("utf-8", errors="replace")
            try:
                response = await self._dispatch(request)
            except TimeoutError:
                # The worker thread finishes in the background; its
                # result is discarded. The client gets a retryable 503.
                response = self._deadline_response()
                close = True
        await self._write_response(writer, response, close)
        return close

    def _deadline_response(self) -> Response:
        return Response(
            503,
            {
                "detail": (
                    f"request exceeded the {self.request_timeout}s "
                    "deadline; retry shortly"
                )
            },
            {"Retry-After": str(RETRY_AFTER_SECONDS)},
        )

    async def _dispatch(self, request: Request) -> Response:
        loop = asyncio.get_running_loop()
        dispatched = loop.run_in_executor(
            self._pool, self.router.dispatch, request
        )
        if self.request_timeout is not None:
            return await asyncio.wait_for(dispatched, self.request_timeout)
        return await dispatched

    async def _dispatch_streaming(
        self, request: Request, reader: asyncio.StreamReader, length: int
    ) -> Response:
        loop = asyncio.get_running_loop()
        stream = _RequestBodyStream(loop)
        request.stream = io.BufferedReader(stream, buffer_size=self.READ_CHUNK)
        dispatched = loop.run_in_executor(
            self._pool, self.router.dispatch, request
        )
        pump = asyncio.ensure_future(self._pump_body(reader, stream, length))
        try:
            if self.request_timeout is not None:
                return await asyncio.wait_for(
                    dispatched, self.request_timeout
                )
            return await dispatched
        except TimeoutError:
            return self._deadline_response()
        finally:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            stream.abort()

    async def _pump_body(
        self,
        reader: asyncio.StreamReader,
        stream: _RequestBodyStream,
        length: int,
    ) -> None:
        remaining = length
        try:
            while remaining > 0:
                chunk = await asyncio.wait_for(
                    reader.read(min(self.READ_CHUNK, remaining)),
                    timeout=self.KEEPALIVE_TIMEOUT,
                )
                if not chunk:
                    break  # client went away; handler sees a short body
                remaining -= len(chunk)
                await stream.feed(chunk)
        finally:
            stream.feed_eof()

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, close: bool
    ) -> None:
        # Fault site for chaos testing: an injected error here models a
        # failed response write — the connection drops (clients retry),
        # a half-written JSON body is never emitted.
        _faults.maybe_fire("http.write")
        payload = response.to_bytes()
        reason = http.client.responses.get(response.status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in response.headers.items()
        )
        head = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()


def serve(
    router: Router,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_workers: int | None = None,
    request_timeout: float | None = None,
) -> AsyncHTTPServer:
    """Start a background async HTTP server; caller calls ``shutdown()``."""
    return AsyncHTTPServer(
        router,
        host=host,
        port=port,
        max_workers=max_workers,
        request_timeout=request_timeout,
    ).start()
