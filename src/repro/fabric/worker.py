"""The fabric worker: claim a chunk, simulate it, upload the results.

``python -m repro worker <coordinator-url>`` runs :func:`run_worker`: a
pull loop that claims leased work items from the coordinator, executes the
jobs through the local engine (exactly the
:func:`~repro.runtime.jobs.execute_chunk` path a local pool worker runs),
and uploads the results as inert records (:mod:`repro.runtime.records`).
While a chunk runs, a background thread heartbeats at a third of the lease
length so a healthy worker never loses a long chunk to lease expiry; a
worker that dies simply stops heartbeating and the coordinator requeues its
items.

Bit-equivalence with local execution is carried by two things:

* jobs execute through the very same ``execute_chunk`` function, and
* nested results (oracle trials, shared engine runs) land in a
  :class:`RecordingCache` — the worker's local cache wrapped to remember
  every blob that passes through it — and are uploaded as *extras*, so the
  coordinator's cache ends up with exactly the key set a local run of the
  same chunk would have produced.

Fault injection (``Worker(chaos=Chaos(mode, value))``, the chaos tests):

* ``die_after`` — complete ``value`` items, then vanish holding a lease;
* ``stall``     — claim an item, then hang without heartbeating;
* ``corrupt``   — flip a byte in each upload's payload (digest mismatch).

Every wait in this module goes through :mod:`repro.resilience`: idle polls
are jittered so a fleet never thunders in lockstep, transient claim/upload
failures back off exponentially, and a coordinator that stays unreachable
trips a circuit breaker — the worker then sleeps through the breaker's
cooldown instead of hammering a dead endpoint.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from repro import knobs, resilience
from repro.fabric import wire
from repro.fabric.queue import FabricError, WorkQueue
from repro.runtime import records
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.jobs import execute_chunk


@dataclass(frozen=True)
class Chaos:
    """One fault-injection behaviour (see the module docstring)."""

    mode: str
    value: int = 0


@dataclass
class WorkerReport:
    """What one worker's run loop did (the chaos tests assert on this)."""

    claimed: int = 0
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    #: Claim calls that failed (coordinator refused or unreachable).
    claim_failures: int = 0
    #: CLOSED -> OPEN transitions of the coordinator circuit breaker.
    breaker_opens: int = 0
    #: Leases the coordinator reported lost while this worker held them.
    leases_lost: int = 0
    died: bool = False
    stalled: bool = False
    rejected_messages: list[str] = field(default_factory=list)


class RecordingCache(ResultCache):
    """A :class:`ResultCache` that remembers every blob passing through it.

    Handed to ``execute_chunk`` as the nested trial cache: puts *and* read
    hits both funnel through :meth:`_remember`/:meth:`_memory_get`, so
    ``recorded`` accumulates every nested result the chunk's execution
    touched (the worker empties it before each chunk) — including entries
    the worker's local cache already held from an earlier chunk, which the
    coordinator may still be missing (e.g. when that earlier upload was
    lost to a crash).  Uploading the touched set, not just the fresh puts,
    is what keeps the coordinator's key inventory identical to a local
    run's.
    """

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.recorded: dict[str, bytes] = {}

    def _remember(self, key: str, blob: bytes) -> None:
        self.recorded[key] = blob
        super()._remember(key, blob)

    def _memory_get(self, key: str) -> bytes | None:
        blob = super()._memory_get(key)
        if blob is not None:
            self.recorded[key] = blob
        return blob


# ----------------------------------------------------------------------
# Queue clients: in-process (tests) and HTTP (real deployments)
# ----------------------------------------------------------------------
class DirectClient:
    """Drives a :class:`WorkQueue` object in-process — the test harness's
    client, running the exact record protocol the HTTP client speaks."""

    def __init__(self, queue: WorkQueue) -> None:
        self.queue = queue

    def claim(self, worker: str, max_items: int) -> list[dict]:
        items, _outstanding = self.queue.claim(worker, max_items)
        return items

    def heartbeat(self, worker: str, item_ids: list[str]) -> dict:
        return self.queue.heartbeat(worker, item_ids)

    def complete(self, worker: str, record: dict) -> dict:
        return self.queue.complete(worker, record)


class HttpClient:
    """Speaks the coordinator's ``/v1/work/*`` JSON protocol over HTTP.

    When ``REPRO_FABRIC_TOKEN`` is set (the coordinator's shared secret),
    every request carries it in the auth header — the same environment
    variable configures both sides of the connection.
    """

    def __init__(self, base_url: str, timeout: float | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout if timeout is not None else resilience.http_timeout()

    def _post(self, route: str, record: dict) -> dict:
        from repro.fabric.api import TOKEN_HEADER, fabric_token

        body = json.dumps(record).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = fabric_token()
        if token is not None:
            headers[TOKEN_HEADER] = token
        request = urllib.request.Request(
            self.base_url + route,
            data=body,
            headers=headers,
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                payload = json.loads(error.read().decode("utf-8"))
                detail = payload.get("error", "")
            except (OSError, ValueError, AttributeError):
                # The error body is advisory only; a coordinator answering
                # with a non-JSON page still maps to the status-code message.
                detail = ""
            raise FabricError(
                error.code, detail or f"coordinator answered {error.code}"
            ) from None

    def claim(self, worker: str, max_items: int) -> list[dict]:
        record = self._post(
            "/v1/work/claim", {"worker": worker, "max_items": max_items}
        )
        return record.get("items", [])

    def heartbeat(self, worker: str, item_ids: list[str]) -> dict:
        return self._post("/v1/work/heartbeat", {"worker": worker, "items": item_ids})

    def complete(self, worker: str, record: dict) -> dict:
        return self._post("/v1/work/complete", record)


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
class Worker:
    """One claim/execute/upload loop over a queue client.

    ``target`` is a coordinator URL (HTTP client), a live
    :class:`WorkQueue` (in-process client, the test harness), or any
    object already speaking the client protocol (``claim``/``heartbeat``/
    ``complete`` — the chaos harness wraps clients this way).  ``stop`` is
    an optional external kill switch; :meth:`run` also exits when chaos
    says the worker "dies".

    ``breaker`` guards the coordinator connection: repeated *transport*
    failures (unreachable, reset) open it, and an open breaker replaces
    claim attempts with a quiet cooldown sleep.  Protocol-level refusals
    (:class:`FabricError` — the coordinator answered, just not yes) never
    trip it.
    """

    def __init__(
        self,
        target,
        *,
        worker_id: str | None = None,
        cache_dir: str | os.PathLike | None = None,
        poll_seconds: float = 0.2,
        max_items: int = 1,
        chaos: Chaos | None = None,
        stop: threading.Event | None = None,
        breaker: resilience.CircuitBreaker | None = None,
        log=None,
    ) -> None:
        if isinstance(target, WorkQueue):
            self.client = DirectClient(target)
        elif isinstance(target, str):
            self.client = HttpClient(target)
        else:
            self.client = target
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-{id(self) & 0xFFFF:04x}"
        )
        if cache_dir is None and not knobs.get("REPRO_CACHE"):
            self.cache_dir = None
        else:
            self.cache_dir = (
                os.fspath(cache_dir) if cache_dir is not None else str(default_cache_dir())
            )
        self.poll_seconds = poll_seconds
        self.max_items = max_items
        self.chaos = chaos
        self.stop = stop if stop is not None else threading.Event()
        self.breaker = breaker if breaker is not None else resilience.CircuitBreaker()
        #: Backoff for failed claims, seeded at the poll interval so test
        #: fleets with millisecond polls stay fast; resets on success.
        self.claim_backoff = resilience.Backoff(initial=poll_seconds)
        #: Separate ladder for rejected uploads — a corrupting worker must
        #: not speed its claim cadence back up between rejections.
        self.upload_backoff = resilience.Backoff(initial=poll_seconds)
        self.log = log
        self.report = WorkerReport()
        #: The nested-result cache, built on the first claimed item and kept
        #: (see :meth:`_trial_cache`).
        self._recording: RecordingCache | None = None

    # ------------------------------------------------------------------
    def run(self) -> WorkerReport:
        """Poll until stopped (or chaos kills the worker); returns the
        report of what happened."""
        while not self.stop.is_set():
            if not self.breaker.allow():
                # Coordinator is presumed dead: sleep out the cooldown
                # instead of burning connections against it.
                resilience.pause(
                    min(self.poll_seconds, self.breaker.cooldown()) or self.poll_seconds,
                    self.stop,
                )
                continue
            try:
                items = self.client.claim(self.worker_id, self.max_items)
            except FabricError as error:
                # The coordinator answered; this is policy, not an outage.
                self.report.claim_failures += 1
                self._log(f"claim rejected: {error}")
                resilience.pause(self.claim_backoff.next_delay(), self.stop)
                continue
            except (urllib.error.URLError, OSError) as error:
                # Coordinator not up (yet) or network blip: back off, and
                # let the breaker decide when polling becomes pointless.
                self.report.claim_failures += 1
                if self.breaker.record_failure():
                    self.report.breaker_opens += 1
                    self._log(
                        f"coordinator unreachable {self.breaker.threshold} times; "
                        f"breaker open for {self.breaker.reset_seconds:g}s"
                    )
                self._log(f"claim failed: {error}")
                resilience.pause(self.claim_backoff.next_delay(), self.stop)
                continue
            self.breaker.record_success()
            self.claim_backoff.reset()
            if not items:
                resilience.pause(
                    resilience.jittered(self.poll_seconds), self.stop
                )
                continue
            for item in items:
                self.report.claimed += 1
                if not self._process(item):
                    return self.report
        return self.report

    # ------------------------------------------------------------------
    def _process(self, item: dict) -> bool:
        """Execute one claimed item; ``False`` ends the run loop (death)."""
        chaos = self.chaos
        if chaos is not None and chaos.mode == "die_after":
            if self.report.completed >= chaos.value:
                # Crash simulation: vanish while holding the lease.  No
                # completion, no heartbeat — the lease must expire.
                self.report.died = True
                self._log(f"chaos: dying while holding {item['item_id']}")
                return False
        if chaos is not None and chaos.mode == "stall":
            # Hang without heartbeating until externally stopped; the
            # coordinator must requeue the item elsewhere.
            self.report.stalled = True
            self._log(f"chaos: stalling on {item['item_id']}")
            self.stop.wait()
            return False

        try:
            jobs = wire.decode_jobs(item["jobs"])
        except wire.IntegrityError as error:
            # A mangled claim payload: drop the lease (it will expire).
            self.report.errors += 1
            self._log(f"claim payload corrupt: {error}")
            return True

        heartbeat_stop = threading.Event()
        interval = max(0.02, float(item.get("lease_seconds", 30.0)) / 3.0)

        def beat() -> None:
            while not heartbeat_stop.wait(interval):
                try:
                    status = self.client.heartbeat(self.worker_id, [item["item_id"]])
                except (FabricError, urllib.error.URLError, OSError):
                    return  # coordinator gone; the run loop will notice
                if item["item_id"] in status.get("lost", ()):
                    # The lease expired and was reassigned: stop renewing a
                    # lease this worker no longer holds — beating on would
                    # fight the new holder for it.
                    self.report.leases_lost += 1
                    self._log(f"lease lost on {item['item_id']}; heartbeat stopped")
                    return

        beater = threading.Thread(
            target=beat, name=f"repro-heartbeat-{item['item_id']}", daemon=True
        )
        beater.start()
        try:
            recording = self._trial_cache()
            outcomes, error = execute_chunk(jobs, trial_cache=recording)
        finally:
            heartbeat_stop.set()
            beater.join(timeout=5)

        record: dict = {
            "item_id": item["item_id"],
            "worker": self.worker_id,
            "error": None if error is None else f"{type(error).__name__}: {error}",
            "outcomes": [wire.encode_blob(records.encode(outcome)) for outcome in outcomes],
            "extras": [
                {"key": key, **wire.encode_blob(blob)}
                for key, blob in sorted(recording.recorded.items())
            ]
            if recording is not None
            else [],
        }
        if chaos is not None and chaos.mode == "corrupt":
            _corrupt_record(record)
        try:
            self.client.complete(self.worker_id, record)
            self.report.completed += 1
            self.upload_backoff.reset()
            self._log(
                f"completed {item['item_id']} ({len(outcomes)} results)"
            )
        except FabricError as error:
            self.report.rejected += 1
            self.report.rejected_messages.append(str(error))
            self._log(f"upload rejected ({error.status}): {error}")
            # Back off before claiming again, and escalate on repetition:
            # whatever corrupted this upload (bad serialisation, flaky disk,
            # chaos) will likely corrupt the next one too, and the rejected
            # item was just requeued at the front — a tight retry loop would
            # race healthier workers for it and burn through its lease budget.
            resilience.pause(self.upload_backoff.next_delay(), self.stop)
        except (urllib.error.URLError, OSError) as error:
            self.report.errors += 1
            self._log(f"upload failed: {error}")
            resilience.pause(self.upload_backoff.next_delay(), self.stop)
        return True

    def _trial_cache(self) -> RecordingCache | None:
        """The worker's one :class:`RecordingCache`, with a fresh
        ``recorded`` set for the item about to run.

        Built on first use and kept, so the segment index and pack tables
        are loaded once per worker, not once per item.  An entry an earlier
        item left in the memory level is still recorded when this item
        reads it, and so still uploaded as an extra.
        """
        if self.cache_dir is None:
            return None
        if self._recording is None:
            self._recording = RecordingCache(self.cache_dir)
        self._recording.recorded = {}
        return self._recording

    def _log(self, message: str) -> None:
        if self.log is not None:
            self.log(f"[{self.worker_id}] {message}")


def _corrupt_record(record: dict) -> None:
    """Chaos ``corrupt``: flip a payload byte *after* digests were declared,
    so the upload's content no longer matches its sha256."""
    import base64

    blobs = record["outcomes"] or record["extras"]
    if not blobs:
        record["outcomes"] = [{"data": "", "sha256": "0" * 64}]
        return
    target = blobs[0]
    raw = bytearray(base64.b64decode(target["data"]))
    if raw:
        raw[len(raw) // 2] ^= 0xFF
    else:
        raw = bytearray(b"\x00")
    target["data"] = base64.b64encode(bytes(raw)).decode("ascii")


def run_worker(
    url: str,
    *,
    worker_id: str | None = None,
    cache_dir: str | None = None,
    poll_seconds: float = 0.2,
    max_items: int = 1,
) -> int:
    """Blocking entry point behind ``python -m repro worker``."""
    worker = Worker(
        url,
        worker_id=worker_id,
        cache_dir=cache_dir,
        poll_seconds=poll_seconds,
        max_items=max_items,
        log=lambda message: print(
            f"[repro.worker] {message}", file=sys.stderr, flush=True
        ),
    )
    cache_note = worker.cache_dir if worker.cache_dir is not None else "disabled"
    print(
        f"[repro.worker] {worker.worker_id} polling {url} (cache: {cache_note})",
        file=sys.stderr,
        flush=True,
    )
    started = time.monotonic()
    try:
        report = worker.run()
    except KeyboardInterrupt:
        report = worker.report
    print(
        f"[repro.worker] {worker.worker_id} exiting after "
        f"{time.monotonic() - started:.1f}s: claimed={report.claimed} "
        f"completed={report.completed} rejected={report.rejected} "
        f"errors={report.errors}",
        file=sys.stderr,
        flush=True,
    )
    return 0
