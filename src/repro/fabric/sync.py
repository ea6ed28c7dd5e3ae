"""Anti-entropy cache replication: ``python -m repro cache pull <url>``.

The result cache is content-addressed by everything a simulation depends
on, so two peers' caches can never disagree about a key — an entry is
either absent or byte-identical.  Merging is therefore pure anti-entropy:
diff the peer's key inventory (``GET /v1/cache/keys``) against the local
:meth:`~repro.runtime.cache.ResultCache.missing` probe, fetch only the
absent entries (``GET /v1/cache/entry/<key>``), verify each blob against
the digest header, decode it as a result record (inert JSON; see
:mod:`repro.runtime.records`), and store the raw bytes.  A corrupt or
vanished entry, one that is no result record, or one whose response
carries *no* digest header at all (a proxy or foreign peer that stripped
it) is skipped, never stored: the local cache can only gain verified
entries.

Transient transport failures (peer restarting, network blip) are retried
under the shared resilience policy (:data:`repro.resilience.RETRY_ATTEMPTS`
attempts on the shared backoff ladder); HTTP-level answers are not — a
``404`` means the entry was pruned between inventory and fetch, and
retrying would not bring it back.  :func:`pull_loop` runs pulls continuously with a jittered
interval, the follower mode behind ``cache pull --interval``.

When the peer requires the shared fabric secret (``REPRO_FABRIC_TOKEN``),
the same environment variable makes every request carry it.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass

from repro import resilience
from repro.fabric import wire
from repro.httpd import CONTENT_DIGEST_HEADER
from repro.runtime.cache import ResultCache

#: Transport-level failures worth retrying.  ``HTTPError`` is an
#: ``OSError`` subclass but represents a *delivered* answer, so retry
#: loops veto it via ``giveup`` rather than by exception type.
TRANSIENT_ERRORS = (urllib.error.URLError, OSError)


def _is_http_answer(error: BaseException) -> bool:
    return isinstance(error, urllib.error.HTTPError)


@dataclass(frozen=True)
class PullReport:
    """Outcome of one :func:`pull_cache` run."""

    remote_entries: int
    already_present: int
    fetched: int
    skipped: int


def _open(url: str, timeout: float):
    """``urlopen`` with the shared fabric secret attached when configured."""
    from repro.fabric.api import TOKEN_HEADER, fabric_token

    headers = {}
    token = fabric_token()
    if token is not None:
        headers[TOKEN_HEADER] = token
    return urllib.request.urlopen(
        urllib.request.Request(url, headers=headers), timeout=timeout
    )


def pull_cache(
    cache: ResultCache,
    base_url: str,
    timeout: float | None = None,
    *,
    stop: threading.Event | None = None,
    log=None,
) -> PullReport:
    """Merge every entry the peer at ``base_url`` has and we do not."""
    base = base_url.rstrip("/")
    wait = timeout if timeout is not None else resilience.http_timeout()

    def fetch_inventory():
        with _open(base + "/v1/cache/keys", wait) as response:
            return json.loads(response.read().decode("utf-8"))

    record = resilience.retry_call(
        fetch_inventory,
        retryable=TRANSIENT_ERRORS,
        giveup=_is_http_answer,
        stop=stop,
        log=log,
        describe="cache inventory fetch",
    )
    keys = record.get("keys", [])
    if not isinstance(keys, list):
        raise ValueError("peer's cache inventory is malformed")
    keys = [key for key in keys if isinstance(key, str) and wire.is_content_key(key)]
    absent = cache.missing(keys)
    fetched = 0
    skipped = 0
    for key in absent:
        def fetch_entry(key=key):
            with _open(base + "/v1/cache/entry/" + key, wait) as response:
                return response.read(), response.headers.get(CONTENT_DIGEST_HEADER)

        try:
            blob, declared = resilience.retry_call(
                fetch_entry,
                retryable=TRANSIENT_ERRORS,
                giveup=_is_http_answer,
                stop=stop,
                log=log,
                describe=f"cache entry fetch ({key[:16]}…)",
            )
        except urllib.error.HTTPError:
            skipped += 1  # pruned (or never served) between inventory and fetch
            continue
        except TRANSIENT_ERRORS:
            skipped += 1  # peer unreachable past the retry budget
            continue
        if declared is None or wire.digest(blob) != declared:
            # No digest header means no provenance (a proxy stripped it, or
            # the peer is not a repro coordinator) — as unacceptable as a
            # mismatch.  Skipping keeps "digest-verified before storing"
            # strict instead of best-effort.
            skipped += 1
            continue
        try:
            wire.decode_result(blob)
        except wire.IntegrityError:
            skipped += 1  # no result record; a stored copy could never hit
            continue
        cache.put_blob(key, blob)
        fetched += 1
    return PullReport(
        remote_entries=len(keys),
        already_present=len(keys) - len(absent),
        fetched=fetched,
        skipped=skipped,
    )


def pull_loop(
    cache: ResultCache,
    base_url: str,
    interval: float,
    *,
    rounds: int | None = None,
    stop: threading.Event | None = None,
    timeout: float | None = None,
    log=None,
) -> int:
    """Run :func:`pull_cache` continuously, ``interval`` seconds apart.

    The follower mode behind ``cache pull --interval``: each round merges
    whatever the peer gained since the last one, then sleeps a *jittered*
    interval so a fleet of followers spreads its polls instead of hitting
    the coordinator in phase.  A round that fails outright (peer down past
    the retry budget) is logged and the loop carries on — a follower's job
    is to still be there when the peer comes back.  Runs forever unless
    ``rounds`` bounds it or ``stop`` is set; returns the rounds completed.
    """
    done = 0
    while rounds is None or done < rounds:
        if stop is not None and stop.is_set():
            break
        try:
            report = pull_cache(cache, base_url, timeout, stop=stop, log=log)
        except (ValueError, *TRANSIENT_ERRORS) as error:
            if log is not None:
                log(f"pull round failed: {error}")
        else:
            if log is not None:
                log(
                    f"pull round {done + 1}: fetched={report.fetched} "
                    f"present={report.already_present} skipped={report.skipped}"
                )
        done += 1
        if rounds is not None and done >= rounds:
            break
        if resilience.pause(resilience.jittered(interval), stop):
            break
    return done
