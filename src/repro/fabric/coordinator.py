"""The coordinator: process-wide queue, executor and (optional) listener.

A process becomes a coordinator the moment a runner in ``REPRO_POOL=remote``
mode dispatches its first batch: :func:`runtime_executor` materialises the
shared :class:`Coordinator` — one :class:`~repro.fabric.queue.WorkQueue`
plus its :class:`~repro.fabric.executor.RemoteExecutor` — and, unless the
environment says otherwise, starts the standalone HTTP listener so workers
can reach the queue.  The serving front-end (``python -m repro serve``)
suppresses the extra listener and mounts the same routes on its own port
instead; either way there is exactly one queue per process, so every
surface hands out the same work.

Environment knobs:

* ``REPRO_FABRIC_LISTEN=0`` — never auto-start the standalone listener
  (the serve front-end sets this; tests driving in-process workers too).
* ``REPRO_FABRIC_HOST`` / ``REPRO_FABRIC_PORT`` — bind address of the
  standalone listener (default ``127.0.0.1:8735``; port ``0`` picks free).
"""

from __future__ import annotations

import asyncio
import sys
import threading

from repro import knobs
from repro.fabric import api
from repro.fabric.executor import RemoteExecutor
from repro.fabric.queue import WorkQueue
from repro.runtime.cache import ResultCache
from repro.serve.http import (
    Request,
    Response,
    ThreadedServer,
    body_bound_for_path,
    serve_connection,
)
from repro.serve.wire import error_response, health_record, json_response

DEFAULT_FABRIC_PORT = 8735


def _env_cache() -> ResultCache | None:
    """The coordinator-process cache the listener's ``/v1/cache`` routes
    serve (mirrors the runner's own env-default cache selection)."""
    if not knobs.get("REPRO_CACHE"):
        return None
    return ResultCache()


class Coordinator:
    """Owns one work queue, its executor face, and at most one listener."""

    def __init__(
        self,
        queue: WorkQueue | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        self.queue = queue if queue is not None else WorkQueue()
        self.executor = RemoteExecutor(self.queue)
        self.cache = cache if cache is not None else _env_cache()
        self._listener: ThreadedServer | None = None  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def url(self) -> str | None:
        """The standalone listener's URL, if one is running."""
        # Lock-free read: a listener is installed at most once and never
        # replaced, so the worst case is reporting None during startup.
        listener = self._listener  # repro: allow[lock-discipline]
        return listener.url if listener is not None else None

    def ensure_listener(
        self, host: str | None = None, port: int | None = None
    ) -> str:
        """Start (or return) the standalone work listener; returns its URL.

        Refuses (``ValueError``) to bind a non-loopback address unless
        ``REPRO_FABRIC_TOKEN`` is set — the work routes deserialize pickled
        uploads, so an open listener would be remote code execution.
        """
        bind_host = host or knobs.get("REPRO_FABRIC_HOST")
        api.require_loopback_or_token(bind_host, surface="the fabric listener")
        with self._lock:
            if self._listener is None:
                listener = ThreadedServer(
                    self._connection,
                    host=bind_host,
                    port=(
                        port
                        if port is not None
                        else knobs.get("REPRO_FABRIC_PORT")
                    ),
                    name="repro-fabric",
                )
                listener.start()
                self._listener = listener
                print(
                    f"[repro.fabric] coordinator listening on {listener.url} "
                    f"(workers: python -m repro worker {listener.url})",
                    file=sys.stderr,
                    flush=True,
                )
            return self._listener.url

    def close(self) -> None:
        """Stop the listener (the queue itself has nothing to tear down)."""
        with self._lock:
            listener, self._listener = self._listener, None
        if listener is not None:
            listener.stop()

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection to the standalone listener: the serve port's own
        loop (:func:`~repro.serve.http.serve_connection`), with only the
        upload route admitting large bodies."""
        await serve_connection(
            reader, writer, self._route, error_response, max_body=body_bound_for_path
        )

    async def _route(self, request: Request) -> Response:
        """The standalone listener's routes: ``/healthz`` and the fabric's.

        Deliberately smaller than the serve front-end — no ETags, no
        background jobs, no API keys — and never through
        :meth:`ServeApp.dispatch <repro.serve.app.ServeApp.dispatch>`.
        """
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return json_response(200, health_record())
        if api.is_fabric_path(path):
            return await asyncio.to_thread(
                api.dispatch_route, path, request, self.queue, self.cache
            )
        return error_response(404, f"no route for {request.path}")


# ----------------------------------------------------------------------
# The process-wide coordinator singleton
# ----------------------------------------------------------------------
_shared: Coordinator | None = None
_shared_lock = threading.Lock()


def shared_coordinator() -> Coordinator:
    """The process-wide coordinator, created on first use."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = Coordinator()
        return _shared


def set_shared_coordinator(coordinator: Coordinator) -> None:
    """Install a pre-configured coordinator (tests and benches use this to
    pin lease lengths or a specific listener port)."""
    global _shared
    with _shared_lock:
        previous, _shared = _shared, coordinator
    if previous is not None and previous is not coordinator:
        previous.close()


def shared_queue() -> WorkQueue:
    """The shared coordinator's queue (never starts a listener)."""
    return shared_coordinator().queue


def reset_shared_fabric() -> None:
    """Stop and forget the shared coordinator (tests use this between
    scenarios; outstanding futures of the dropped queue never resolve)."""
    global _shared
    with _shared_lock:
        previous, _shared = _shared, None
    if previous is not None:
        previous.close()


def runtime_executor() -> RemoteExecutor:
    """What ``acquire_executor("remote", ...)`` hands the batch runner.

    Auto-starts the standalone listener unless ``REPRO_FABRIC_LISTEN=0``
    (the serve front-end and the in-process test harness both set it — they
    already expose the queue another way, or do not need HTTP at all).
    """
    coordinator = shared_coordinator()
    if knobs.get("REPRO_FABRIC_LISTEN"):
        coordinator.ensure_listener()
    return coordinator.executor
