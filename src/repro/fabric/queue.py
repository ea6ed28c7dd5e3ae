"""The coordinator's pull-based work queue with lease-based claims.

:class:`WorkQueue` is the synchronisation point between a
:class:`~repro.runtime.runner.BatchRunner` in ``remote`` pool mode and any
number of ``python -m repro worker`` processes:

* the runner's :class:`~repro.fabric.executor.RemoteExecutor` turns each
  dispatch chunk into a :class:`WorkItem` and gets a
  :class:`~concurrent.futures.Future` back;
* workers *pull*: :meth:`claim` leases pending items (never pushes — a slow
  or dead worker simply stops claiming), :meth:`heartbeat` extends a lease
  while a long chunk runs, :meth:`complete` uploads the results;
* a lease that expires without a completion (worker died, stalled, or lost
  its network) requeues the item at the *front* of the queue, so recovered
  stragglers do not wait behind fresh work.  Expiry is swept on every
  claim/heartbeat/complete/snapshot — with at least one live worker polling,
  no orphaned lease survives.

Every upload is verified before it can touch anything: blob digests are
recomputed, payloads must unpickle, and the outcome count must match the
chunk the *coordinator* keyed (results are bound to the coordinator's own
``SimJob.key()`` values, never to keys the worker declares).  A corrupt
upload is rejected with a ``400`` and the item goes back on the queue.  For
the *extras* path (nested results a chunk touched) the keys are necessarily
worker-declared — the coordinator cannot derive a chunk's nested key set
without executing it — so its guarantee is narrower: an extra must carry a
well-formed content key and decode, and it may only *fill an absent* cache
entry, never replace existing bytes.  What lands under a fresh extras key
is trusted to the worker set, which is why the fabric surface is opt-in and
token-guarded (:mod:`repro.fabric.api`) rather than open.  The first
*valid* completion wins; duplicates (a stalled worker finishing after its
lease was reassigned) are acknowledged idempotently.

Environment knobs:

* ``REPRO_LEASE_SECONDS`` — lease length granted per claim (default 30).
* ``REPRO_MAX_ATTEMPTS`` — leases an item may burn before the queue gives
  up and fails the batch (default 5).

Both limits live in a :class:`repro.resilience.LeasePolicy`: each item's
lease expiry is a :class:`~repro.resilience.Deadline` and its attempt
budget a :class:`~repro.resilience.RetryBudget`, the same vocabulary every
other wait/retry limit in the repository is expressed in.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError

from repro import knobs, resilience
from repro.fabric import wire
from repro.fabric.unpickle import UnpickleError, restricted_loads
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import SimJob

#: Work-item lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_MAX_ATTEMPTS = 5


def lease_seconds_from_env() -> float:
    """Lease length the environment asks for (default 30 s)."""
    return knobs.get("REPRO_LEASE_SECONDS")


def max_attempts_from_env() -> int:
    """Lease budget per item the environment asks for (default 5)."""
    return knobs.get("REPRO_MAX_ATTEMPTS")


class FabricError(Exception):
    """A queue-protocol violation, reportable with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class RemoteWorkerError(RuntimeError):
    """A chunk failed remotely: either the worker reported an execution
    error (re-raised here so the runner surfaces it exactly like a local
    failure) or the item exhausted its lease budget."""


class WorkItem:
    """One leasable dispatch unit: a keyed chunk plus its result future."""

    __slots__ = (
        "item_id",
        "chunk",
        "keys",
        "payload",
        "extras_dir",
        "state",
        "worker",
        "deadline",
        "budget",
        "future",
    )

    def __init__(
        self,
        item_id: str,
        chunk: list[tuple[str, SimJob]],
        extras_dir: str | None,
        budget: resilience.RetryBudget,
    ) -> None:
        self.item_id = item_id
        self.chunk = list(chunk)
        #: The coordinator's own keys — completions are bound to these, so a
        #: worker can never steer a result under a key it did not earn.
        self.keys = [key for key, _job in self.chunk]
        self.payload = wire.encode_jobs([job for _key, job in self.chunk])
        self.extras_dir = extras_dir
        self.state = PENDING
        self.worker: str | None = None
        #: Lease expiry while LEASED; ``None`` otherwise.
        self.deadline: resilience.Deadline | None = None
        #: Lease budget; one grant is spent per claim.
        self.budget = budget
        self.future: Future = Future()

    @property
    def attempts(self) -> int:
        """Leases granted on this item so far (the budget's spend count)."""
        return self.budget.spent


class WorkQueue:
    """Thread-safe lease queue; see the module docstring for the protocol."""

    def __init__(
        self,
        lease_seconds: float | None = None,
        max_attempts: int | None = None,
    ) -> None:
        self.policy = resilience.LeasePolicy(
            lease_seconds=(
                lease_seconds if lease_seconds is not None else lease_seconds_from_env()
            ),
            max_attempts=(
                max_attempts if max_attempts is not None else max_attempts_from_env()
            ),
        )
        self._lock = threading.Lock()
        self._pending: deque[WorkItem] = deque()  # guarded-by: _lock
        self._items: dict[str, WorkItem] = {}  # guarded-by: _lock
        self._ids = itertools.count(1)
        #: Per-directory caches the extras of completed items deposit into,
        #: shared so their in-memory level stays warm across completions.
        self._extras_caches: dict[str, ResultCache] = {}  # guarded-by: _lock
        # Telemetry (guarded by the lock).
        self.requeued_leases = 0  # guarded-by: _lock
        self.rejected_uploads = 0  # guarded-by: _lock
        self.completed_items = 0  # guarded-by: _lock
        self.failed_items = 0  # guarded-by: _lock

    @property
    def lease_seconds(self) -> float:
        return self.policy.lease_seconds

    @property
    def max_attempts(self) -> int:
        return self.policy.max_attempts

    # ------------------------------------------------------------------
    # Runner side
    # ------------------------------------------------------------------
    def submit_chunk(
        self, chunk: list[tuple[str, SimJob]], extras_dir: str | None = None
    ) -> Future:
        """Enqueue one keyed chunk; the future resolves to the
        ``(outcomes, error)`` pair :func:`~repro.runtime.jobs.execute_chunk`
        would have returned locally."""
        if not chunk:
            raise ValueError("cannot submit an empty chunk")
        # Built outside the lock: the constructor pickles the whole chunk
        # (wire.encode_jobs), and serializing megabytes under the lock would
        # stall concurrent claim/heartbeat/complete calls — delaying exactly
        # the lease extensions a long batch depends on.  (``itertools.count``
        # is safe to advance concurrently.)
        item = WorkItem(
            f"w{next(self._ids):08d}", chunk, extras_dir, self.policy.lease_budget()
        )
        with self._lock:
            self._items[item.item_id] = item
            self._pending.append(item)
        return item.future

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self, worker: str, max_items: int = 1) -> tuple[list[dict], int]:
        """Lease up to ``max_items`` pending items to ``worker``.

        Returns ``(item records, outstanding)`` where *outstanding* counts
        items not yet done/failed — a worker loop's idle/busy signal.
        Expired leases are swept (and requeued at the front) first, so the
        poll of any healthy worker is what rescues a dead worker's items.
        """
        now = time.monotonic()
        granted: list[WorkItem] = []
        with self._lock:
            self._expire_locked(now)
            while self._pending and len(granted) < max(1, int(max_items)):
                item = self._pending.popleft()
                if item.future.cancelled():
                    # The submitting batch was abandoned (its runner raised
                    # and cancelled outstanding futures); executing the item
                    # would be wasted work with nowhere to land.
                    item.state = FAILED
                    continue
                item.state = LEASED
                item.worker = worker
                item.budget.grant()
                item.deadline = self.policy.lease_deadline(now=now)
                granted.append(item)
            outstanding = self._outstanding_locked()
        return [self._item_record(item) for item in granted], outstanding

    def heartbeat(self, worker: str, item_ids: list[str]) -> dict:
        """Extend the leases ``worker`` still holds; report the ones it lost.

        A lost lease (expired and requeued, or completed by another worker)
        tells the worker its in-flight execution is now advisory — it may
        finish and upload (first valid completion wins) or abandon the work.
        """
        now = time.monotonic()
        extended: list[str] = []
        lost: list[str] = []
        with self._lock:
            self._expire_locked(now)
            for item_id in item_ids:
                item = self._items.get(item_id)
                if item is not None and item.state == LEASED and item.worker == worker:
                    item.deadline = self.policy.lease_deadline(now=now)
                    extended.append(item_id)
                else:
                    lost.append(item_id)
        return {"extended": extended, "lost": lost}

    def complete(self, worker: str, record: dict) -> dict:
        """Accept (or reject) one completion upload.

        Verification happens before any state changes: outcomes and extras
        must be lists, every blob's digest is recomputed, outcomes and
        extras must unpickle, and the outcome count must cover the chunk
        (exactly, unless the worker reports an
        execution error — then a completed prefix is legal, mirroring
        ``execute_chunk``'s crash-resume contract).  A verification failure
        requeues the item and raises :class:`FabricError` (the ``400``).
        """
        item_id = record.get("item_id")
        if not isinstance(item_id, str):
            raise FabricError(400, "completion must name its item_id")
        with self._lock:
            item = self._items.get(item_id)
        if item is None:
            raise FabricError(404, f"no such work item {item_id!r}")

        error_text = record.get("error")
        if error_text is not None and not isinstance(error_text, str):
            raise FabricError(400, "error must be a string or null")
        try:
            outcome_records = record.get("outcomes", [])
            extra_records = record.get("extras", [])
            if not isinstance(outcome_records, list) or not isinstance(
                extra_records, list
            ):
                raise wire.IntegrityError("outcomes and extras must be lists")
            outcomes = []
            for blob_record in outcome_records:
                blob = wire.decode_blob(blob_record)
                try:
                    outcomes.append(restricted_loads(blob))
                except UnpickleError as err:
                    raise wire.IntegrityError(
                        f"outcome does not unpickle: {err}"
                    ) from None
            extras: list[tuple[str, bytes]] = []
            for extra in extra_records:
                key = extra.get("key") if isinstance(extra, dict) else None
                if not isinstance(key, str) or not wire.is_content_key(key):
                    raise wire.IntegrityError("extra entry carries no valid key")
                blob = wire.decode_blob(extra)
                try:
                    restricted_loads(blob)
                except UnpickleError as err:
                    raise wire.IntegrityError(
                        f"extra entry does not unpickle: {err}"
                    ) from None
                extras.append((key, blob))
            if len(outcomes) > len(item.keys) or (
                error_text is None and len(outcomes) != len(item.keys)
            ):
                raise wire.IntegrityError(
                    f"expected {len(item.keys)} outcomes, got {len(outcomes)}"
                )
        except wire.IntegrityError as err:
            self._reject(item, worker)
            raise FabricError(400, f"corrupt upload rejected: {err}") from None

        with self._lock:
            if item.state == DONE:
                return {"status": "duplicate", "item_id": item_id}
            if item.state == FAILED:
                return {"status": "stale", "item_id": item_id}
            if item.state == PENDING:
                # A late but *valid* completion from a worker whose lease
                # already expired: accept it (first valid result wins) and
                # pull the item back off the pending queue.
                try:
                    self._pending.remove(item)
                except ValueError:
                    pass
            item.state = DONE
            item.worker = worker
            item.deadline = None
            self.completed_items += 1
            extras_cache = (
                self._extras_cache_locked(item.extras_dir) if extras else None
            )
        # Disk writes and future resolution happen outside the lock: the
        # future's waiter is the runner thread, which immediately caches the
        # outcomes — no reason to serialise that against other claims.
        if extras_cache is not None:
            # Extras keys are worker-declared, so they only get to *fill*
            # absent entries — an existing entry keeps its bytes.  Honest
            # workers lose nothing (a present entry is already the right
            # bytes: the cache key binds every simulation input), and a
            # corrupt worker cannot replace entries of unrelated jobs.
            absent = set(extras_cache.missing([key for key, _blob in extras]))
            for key, blob in extras:
                if key in absent:
                    extras_cache.put_blob(key, blob)
        error = RemoteWorkerError(error_text) if error_text else None
        self._resolve(item, (outcomes, error))
        return {"status": "accepted", "item_id": item_id}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Telemetry counts (also sweeps expired leases, so an observer's
        poll keeps requeues moving even between worker claims)."""
        with self._lock:
            self._expire_locked(time.monotonic())
            states = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
            for item in self._items.values():
                states[item.state] += 1
            return {
                "pending": states[PENDING],
                "leased": states[LEASED],
                "done": states[DONE],
                "failed": states[FAILED],
                "outstanding": states[PENDING] + states[LEASED],
                "requeued_leases": self.requeued_leases,
                "rejected_uploads": self.rejected_uploads,
                "completed_items": self.completed_items,
                "failed_items": self.failed_items,
                "lease_seconds": self.lease_seconds,
                "max_attempts": self.max_attempts,
            }

    def outstanding(self) -> int:
        """Items not yet done or failed."""
        with self._lock:
            return self._outstanding_locked()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _item_record(self, item: WorkItem) -> dict:
        return {
            "item_id": item.item_id,
            "jobs": item.payload,
            "keys": list(item.keys),
            "lease_seconds": self.lease_seconds,
            "attempt": item.attempts,
        }

    def _outstanding_locked(self) -> int:
        return sum(
            1 for item in self._items.values() if item.state in (PENDING, LEASED)
        )

    def _expire_locked(self, now: float) -> None:
        expired = [
            item
            for item in self._items.values()
            if item.state == LEASED
            and item.deadline is not None
            and item.deadline.expired(now=now)
        ]
        for item in expired:
            self.requeued_leases += 1
            self._release_locked(item)

    def _release_locked(self, item: WorkItem) -> None:
        """Take a lease back: requeue at the front, or fail the item when
        its lease budget is spent (resolving the future with the give-up
        error, so the waiting runner raises instead of hanging forever)."""
        item.worker = None
        item.deadline = None
        if item.budget.exhausted:
            item.state = FAILED
            self.failed_items += 1
            self._resolve(
                item,
                (
                    [],
                    RemoteWorkerError(
                        f"work item {item.item_id} gave up after "
                        f"{item.attempts} leases ({len(item.keys)} jobs)"
                    ),
                ),
            )
        else:
            item.state = PENDING
            self._pending.appendleft(item)

    def _reject(self, item: WorkItem, worker: str) -> None:
        """Bookkeeping for a corrupt upload: count it and, if the uploader
        still holds the lease, release the item back to the queue."""
        with self._lock:
            self.rejected_uploads += 1
            if item.state == LEASED and item.worker == worker:
                self.requeued_leases += 1
                self._release_locked(item)

    def _resolve(self, item: WorkItem, result: tuple) -> None:
        try:
            item.future.set_result(result)
        except InvalidStateError:
            pass  # cancelled by an abandoned batch; nothing is waiting

    def _extras_cache_locked(self, extras_dir: str | None) -> ResultCache | None:
        if extras_dir is None:
            return None
        cache = self._extras_caches.get(extras_dir)
        if cache is None:
            cache = self._extras_caches[extras_dir] = ResultCache(extras_dir)
        return cache
