"""HTTP routes of the fabric, shared by every coordinator surface.

Two listeners expose the work queue: the serving front-end
(:mod:`repro.serve.app` mounts these routes next to its query endpoints,
so one port serves queries *and* feeds workers) and the standalone fabric
listener a ``REPRO_POOL=remote`` CLI run starts on its own
(:mod:`repro.fabric.coordinator`).  Both call :func:`dispatch_route` with
their queue and cache, on the one connection loop of
:func:`repro.httpd.serve_connection`, so neither the protocol nor its
framing, ``413`` and ``500`` answers can drift between surfaces.

Routes::

    POST /v1/work/claim          {"worker": id, "max_items": n}
    POST /v1/work/heartbeat      {"worker": id, "items": [item ids]}
    POST /v1/work/complete       a completion record (see fabric.queue);
                                 outcomes or extras that are no list, a
                                 digest mismatch or a short count: 400
    GET  /v1/work/stats          queue telemetry snapshot
    GET  /v1/cache/keys          the coordinator cache's key inventory
    GET  /v1/cache/entry/<key>   one raw entry (octet-stream + digest header)

``/v1/cache/*`` is what makes peer caches mergeable: ``python -m repro
cache pull <url>`` diffs the inventory against its local cache and fetches
only the missing entries, digest-verified (see :mod:`repro.fabric.sync`).

Security model: every payload is an inert JSON record, so a hostile
upload can only fail to decode.  What remains to guard is the cache: an
authenticated worker may fill absent cache entries (its extras), so only
trusted workers should reach these routes.  Two gates keep that surface
closed by default:

* the serve front-end only mounts fabric routes when its session actually
  runs in remote pool mode (``REPRO_POOL=remote``) — a plain query server
  never carries them;
* when ``REPRO_FABRIC_TOKEN`` is set, every fabric request must present it
  in the ``X-Repro-Fabric-Token`` header (compared constant-time), and
  :func:`require_loopback_or_token` refuses to *bind* a fabric surface to
  a non-loopback address without one.  Workers and ``cache pull`` read the
  same variable and attach the header automatically.
"""

from __future__ import annotations

import hmac

from repro import knobs
from repro.fabric import wire as fabric_wire
from repro.fabric.queue import FabricError, WorkQueue
from repro.httpd import (
    CONTENT_DIGEST_HEADER,
    Request,
    Response,
    error_response,
    json_response,
)
from repro.metrics.results import RESULT_SCHEMA_VERSION
from repro.runtime.cache import ResultCache

#: Header carrying the shared fabric secret (lowercased form is what the
#: parsed :class:`~repro.httpd.Request` stores).
TOKEN_HEADER = "X-Repro-Fabric-Token"

#: Bind addresses that are reachable from the local host only.
LOOPBACK_HOSTS = frozenset({"127.0.0.1", "localhost", "::1"})


def fabric_token() -> str | None:
    """The shared secret from ``REPRO_FABRIC_TOKEN`` (``None`` when unset)."""
    return knobs.get("REPRO_FABRIC_TOKEN")


def check_token(request: Request) -> None:
    """Enforce the shared secret on one fabric request.

    A no-op while no token is configured; with one set, a request whose
    ``X-Repro-Fabric-Token`` header does not match (constant-time compare)
    is refused with a ``403`` before any route logic runs.
    """
    token = fabric_token()
    if token is None:
        return
    presented = request.headers.get(TOKEN_HEADER.lower(), "")
    if not hmac.compare_digest(presented.encode(), token.encode()):
        raise FabricError(
            403, f"fabric routes require a valid {TOKEN_HEADER} header"
        )


def require_loopback_or_token(host: str, *, surface: str) -> None:
    """Refuse to expose fabric routes beyond loopback without a token.

    A worker that reaches the listener may fill absent cache entries, so an
    unauthenticated non-loopback fabric listener would let anyone who can
    reach the port write results into this cache.  Called before binding;
    raises :class:`ValueError` with the remediation (set
    ``REPRO_FABRIC_TOKEN`` on the coordinator and every worker/peer).
    """
    if host in LOOPBACK_HOSTS or fabric_token() is not None:
        return
    raise ValueError(
        f"refusing to bind {surface} on {host!r}: fabric workers may fill "
        "absent cache entries, so a non-loopback listener without auth lets "
        "anyone on the network write results into this cache. Set "
        "REPRO_FABRIC_TOKEN (the same value on the coordinator and every "
        "worker/peer) or bind to 127.0.0.1."
    )


def dispatch_route(
    path: str, request: Request, queue: WorkQueue, cache: ResultCache | None
) -> Response:
    """Answer one fabric-route request (the caller already matched the
    prefix with :func:`repro.httpd.is_fabric_path`).  Runs synchronously —
    the async listeners call it via ``asyncio.to_thread`` since completions
    write to disk and uploads are CPU-bound to verify."""
    try:
        check_token(request)
        if path == "/v1/work/stats":
            if request.method != "GET":
                return error_response(405, "work stats is GET")
            return json_response(200, _stats_record(queue))
        if path.startswith("/v1/work/"):
            if request.method != "POST":
                return error_response(405, "work endpoints are POST")
            try:
                record = fabric_wire.parse_json_body(request.body)
            except ValueError as error:
                return error_response(400, str(error))
            if path == "/v1/work/claim":
                return _claim(queue, record)
            if path == "/v1/work/heartbeat":
                return _heartbeat(queue, record)
            if path == "/v1/work/complete":
                return _complete(queue, record)
            return error_response(404, f"no work route {path!r}")
        if path == "/v1/cache/keys":
            if request.method != "GET":
                return error_response(405, "cache keys is GET")
            return json_response(200, _keys_record(cache))
        if path.startswith("/v1/cache/entry/"):
            if request.method != "GET":
                return error_response(405, "cache entries are GET")
            return _entry(cache, path.removeprefix("/v1/cache/entry/"))
        return error_response(404, f"no fabric route {path!r}")
    except FabricError as error:
        return error_response(error.status, error.message)


# ----------------------------------------------------------------------
# Work queue
# ----------------------------------------------------------------------
def _claim(queue: WorkQueue, record: dict) -> Response:
    worker = str(record.get("worker") or "anonymous")
    try:
        max_items = max(1, min(64, int(record.get("max_items", 1))))
    except (TypeError, ValueError):
        return error_response(400, "max_items must be an integer")
    items, outstanding = queue.claim(worker, max_items)
    return json_response(
        200,
        {
            "kind": "work_claim",
            "schema": RESULT_SCHEMA_VERSION,
            "worker": worker,
            "items": items,
            "outstanding": outstanding,
        },
    )


def _heartbeat(queue: WorkQueue, record: dict) -> Response:
    worker = str(record.get("worker") or "anonymous")
    item_ids = record.get("items")
    if not isinstance(item_ids, list) or not all(
        isinstance(item_id, str) for item_id in item_ids
    ):
        return error_response(400, "items must be a list of item ids")
    outcome = queue.heartbeat(worker, item_ids)
    return json_response(
        200,
        {"kind": "work_heartbeat", "schema": RESULT_SCHEMA_VERSION, **outcome},
    )


def _complete(queue: WorkQueue, record: dict) -> Response:
    worker = str(record.get("worker") or "anonymous")
    outcome = queue.complete(worker, record)
    return json_response(
        200,
        {"kind": "work_complete", "schema": RESULT_SCHEMA_VERSION, **outcome},
    )


def _stats_record(queue: WorkQueue) -> dict:
    return {
        "kind": "work_stats",
        "schema": RESULT_SCHEMA_VERSION,
        **queue.snapshot(),
    }


# ----------------------------------------------------------------------
# Cache replication
# ----------------------------------------------------------------------
def _keys_record(cache: ResultCache | None) -> dict:
    keys = cache.keys() if cache is not None else []
    # Only what /v1/cache/entry/ serves: a stored response body (a
    # ``figure-``/``sweep-``/``dse-`` key) is rendered again by each peer.
    keys = [key for key in keys if fabric_wire.is_content_key(key)]
    return {
        "kind": "cache_keys",
        "schema": RESULT_SCHEMA_VERSION,
        "entries": len(keys),
        "keys": keys,
    }


def _entry(cache: ResultCache | None, key: str) -> Response:
    # The key comes from the request path: only the content-hash alphabet
    # may pass, so a peer can ask for nothing but a cache entry.
    if not fabric_wire.is_content_key(key):
        return error_response(404, f"not a cache key: {key!r}")
    blob = cache.get_blob(key) if cache is not None else None
    if blob is None:
        return error_response(404, f"no cache entry {key}")
    return Response(
        status=200,
        body=blob,
        content_type="application/octet-stream",
        headers={CONTENT_DIGEST_HEADER: fabric_wire.digest(blob)},
    )
