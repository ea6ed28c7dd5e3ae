"""Minimal HTTP/1.1 plumbing shared by the serve port and the fabric listener.

A deliberately small, dependency-free layer over ``asyncio`` streams: parse
one request (request line, headers, ``Content-Length`` body) into a
:class:`Request`, encode a :class:`Response` back out, loop over one
keep-alive connection (:func:`serve_connection`) and run a server on its own
thread (:class:`ThreadedServer`); each listener brings only its routes.  It
supports exactly what :mod:`repro.serve.app` needs —
``GET``/``POST``, keep-alive connections, bounded header/body sizes — and
rejects everything else with a clean status code instead of guessing.

Both listeners also share their JSON bodies (:func:`json_response`,
:func:`error_response`, :func:`health_record`) and the split between the
fabric's route family — ``/v1/work/*``, ``/v1/cache/keys`` and
``/v1/cache/entry/<key>`` — and everything else (:func:`is_fabric_path`),
of which only ``/v1/work/complete`` admits a large body
(:func:`body_bound_for_path`).  This module sits outside
:mod:`repro.serve` and :mod:`repro.fabric` so that neither package loads
the other: a worker process never imports the query front-end, and a plain
query server never imports the fabric.

``http.server`` is avoided on purpose: its threading model would put one OS
thread behind every connection, while the asyncio front-end keeps thousands
of idle keep-alive connections cheap and pushes the actual simulation work
onto background threads only when a request is cache-cold.
"""

from __future__ import annotations

import asyncio
import threading
import traceback
from dataclasses import dataclass, field
from typing import Awaitable, Callable
from urllib.parse import unquote

from repro.api.responses import canonical_json
from repro.metrics.results import RESULT_SCHEMA_VERSION

#: Reason phrases for every status the app emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request-line methods the router understands at all.
ALLOWED_METHODS = ("GET", "POST")

#: Upper bounds keeping a hostile or confused client from ballooning memory.
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 1 << 20  # 1 MiB — a SweepSpec record is a few hundred bytes

#: Body bound for the one route that accepts fabric work uploads: a
#: ``/v1/work/complete`` payload carries a chunk's result records
#: (base64-inflated), which can legitimately run to megabytes on full-scale
#: sweeps.  Every other route still parses tiny JSON records and keeps the
#: 1 MiB bound — see :func:`body_bound_for_path`.
WORK_MAX_BODY_BYTES = 64 << 20

#: Read size and wall-clock limit for draining a body refused with ``413``
#: (see :func:`_discard_body`).
DRAIN_CHUNK_BYTES = 64 << 10
DRAIN_SECONDS = 10.0


def body_bound_for_path(path: str) -> int:
    """Per-route request-body bound for listeners carrying fabric routes.

    Only ``/v1/work/complete`` may carry a large upload; holding every other
    route at :data:`MAX_BODY_BYTES` keeps the big bound from widening the
    memory exposure of the whole surface (bodies are read fully into memory).
    """
    if path.rstrip("/") == "/v1/work/complete":
        return WORK_MAX_BODY_BYTES
    return MAX_BODY_BYTES


class HttpError(Exception):
    """A malformed request, reportable with a specific status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    #: Percent-decoded path, query string stripped (e.g. ``/v1/figure/fig12``).
    path: str
    #: Header name (lowercased) -> value.
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def wants_close(self) -> bool:
        """Whether the client asked to drop the connection after this reply."""
        return self.headers.get("connection", "").lower() == "close"


@dataclass
class Response:
    """One response about to be encoded onto the wire."""

    status: int = 200
    body: bytes = b""
    #: Extra headers (``ETag``, ``Location``, telemetry) beyond the
    #: content/framing ones :func:`encode_response` always emits.
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json; charset=utf-8"


# ----------------------------------------------------------------------
# What both listeners answer alike
# ----------------------------------------------------------------------
#: Response header carrying a raw cache entry's SHA-256 (the fabric's
#: ``/v1/cache/entry/<key>`` replication route); the ``cache pull`` client
#: verifies the body against it before storing anything.
CONTENT_DIGEST_HEADER = "X-Repro-Content-SHA256"


def dump_body(record: dict) -> bytes:
    """Encode one record as a canonical JSON body (newline-terminated,
    exactly like the CLI's payloads, so the two surfaces stay comparable
    byte for byte)."""
    return (canonical_json(record) + "\n").encode("utf-8")


def json_response(status: int, record: dict) -> Response:
    """One record as a JSON response (both listeners' route bodies)."""
    return Response(status=status, body=dump_body(record))


def error_record(status: int, message: str) -> dict:
    """Body of every non-2xx JSON response."""
    return {
        "kind": "error",
        "schema": RESULT_SCHEMA_VERSION,
        "status": status,
        "error": message,
    }


def error_response(status: int, message: str) -> Response:
    """An :func:`error_record` response (both listeners' error bodies)."""
    return json_response(status, error_record(status, message))


def health_record() -> dict:
    """Body of ``GET /healthz`` on either listener."""
    return {"kind": "health", "schema": RESULT_SCHEMA_VERSION, "status": "ok"}


def is_fabric_path(path: str) -> bool:
    """Whether ``path`` belongs to the fabric's route family: the work
    queue (``/v1/work/*``) and cache replication (``/v1/cache/keys``,
    ``/v1/cache/entry/<key>``).  The serve router delegates these and
    exempts them from API-key auth; the standalone listener serves them."""
    return (
        path.startswith("/v1/work/")
        or path == "/v1/cache/keys"
        or path.startswith("/v1/cache/entry/")
    )


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body: int | Callable[[str], int] = MAX_BODY_BYTES,
) -> Request | None:
    """Parse one request off the stream; ``None`` on clean end-of-stream.

    Raises :class:`HttpError` for anything malformed — the connection
    handler reports the status and closes, which is the correct recovery
    for a framing error (the stream position is no longer trustworthy).
    ``max_body`` is the ``413`` bound: an integer, or a callable mapping the
    percent-decoded request path to a bound (listeners carrying fabric
    result uploads pass :func:`body_bound_for_path` so only the upload
    route admits large bodies).
    """
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise HttpError(431, "request line too long") from None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts

    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise HttpError(431, "header line too long") from None
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise HttpError(400, "truncated headers")
        name, colon, value = raw.decode("latin-1").partition(":")
        if not colon:
            raise HttpError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > MAX_HEADER_COUNT:
            raise HttpError(431, "too many headers")

    if "transfer-encoding" in headers:
        # Only Content-Length framing is implemented.  Silently ignoring a
        # chunked body would leave its bytes on the stream to be misread as
        # the next request — the request-smuggling desync class.
        raise HttpError(400, "Transfer-Encoding is not supported; use Content-Length")
    path, _sep, _query = target.partition("?")
    path = unquote(path)
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        bound = max_body(path) if callable(max_body) else max_body
        if length > bound:
            if length <= WORK_MAX_BODY_BYTES:
                await _discard_body(reader, length)
            raise HttpError(413, f"body larger than {bound} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated body") from None

    return Request(method=method, path=path, headers=headers, body=body)


async def _discard_body(reader: asyncio.StreamReader, length: int) -> None:
    """Read and drop up to ``length`` body bytes before a ``413``.

    The handler closes the connection after the ``413``; closing on unread
    bytes resets it, and a client still sending its body then sees a broken
    pipe instead of the status.  The bytes are read in
    :data:`DRAIN_CHUNK_BYTES` pieces and never kept, and the drain gives up
    after :data:`DRAIN_SECONDS` so a slow sender cannot hold the handler.
    """

    remaining = length
    try:
        async with asyncio.timeout(DRAIN_SECONDS):
            while remaining > 0:
                chunk = await reader.read(min(remaining, DRAIN_CHUNK_BYTES))
                if not chunk:
                    return
                remaining -= len(chunk)
    except TimeoutError:
        pass


def encode_response(response: Response, *, keep_alive: bool) -> bytes:
    """Serialize one response, with framing and connection headers."""
    reason = REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    if response.status != 304:
        lines.append(f"Content-Type: {response.content_type}")
        lines.append(f"Content-Length: {len(response.body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    # A 304 carries headers only (RFC 9110 §15.4.5) — the body the client
    # already holds is, by the ETag contract, byte-identical.
    return head if response.status == 304 else head + response.body


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    respond: Callable[[Request], Awaitable[Response]],
    error: Callable[[int, str], Response],
    *,
    max_body: int | Callable[[str], int] = MAX_BODY_BYTES,
) -> None:
    """Answer requests on one keep-alive connection until it closes.

    ``respond`` routes one request; ``error(status, message)`` answers a
    framing error (then the connection closes) and a route that raised (a
    ``500``; the connection keeps serving).
    """
    try:
        while True:
            keep_alive = False
            try:
                request = await read_request(reader, max_body=max_body)
                if request is None:
                    break
                keep_alive = not request.wants_close()
                response = await respond(request)
            except HttpError as failure:
                response = error(failure.status, failure.message)
            except Exception as failure:  # route bug: report, keep serving
                traceback.print_exc()
                response = error(500, f"{type(failure).__name__}: {failure}")
            writer.write(encode_response(response, keep_alive=keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-exchange; nothing to answer
    except asyncio.CancelledError:
        # Shutdown cancelled a handler parked on a keep-alive read; ending
        # normally keeps asyncio from logging it as an error.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # a cancelled handler's await re-raises; it is closing anyway


class ThreadedServer:
    """An asyncio server running ``handle`` per connection on its own thread.

    :meth:`start` returns once it listens (:attr:`port` is then the bound
    port) and re-raises a bind failure; :meth:`stop` tears it down.
    """

    def __init__(self, handle, host: str = "127.0.0.1", port: int = 0, *, name: str):
        self.host = host
        self.port = port
        self._handle = handle
        self._name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            # Cancel handlers *before* wait_closed(): idle keep-alive ones
            # park on a read, and from Python 3.12.1 wait_closed() waits for
            # every connection — waiting first would deadlock on them.
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def stop(self) -> None:
        """Stop the loop and join its thread (idempotent)."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
