"""Background job manager of the serving front-end.

The split the server is built around: a request answered before over the
same cache and settings has its body stored (:meth:`Session.answer`) and is
served as one record read, before this module is consulted at all.  Of the
rest, a request whose every simulation job is already in the result cache is
**warm** and is rendered in the request handler (zero engine executions —
keying, reading and collating the grid's entries, then storing the body);
anything else is **cold** and runs as a background :class:`ServeJob`, with
the client polling a ``/v1/jobs/<key>`` URL that streams the runner's
``on_result`` progress until the finished body is ready.

Concurrent identical requests are **coalesced**: jobs are registered under
the request's content key (:meth:`FigureQuery.key` / :meth:`SweepSpec.key` /
:meth:`DseSpec.key`), so N clients asking for the same cold figure share one
in-flight computation and one result.  Requests that are distinct but
overlap (fig12 and fig18 both need the end-to-end grid) still compute once,
because grid computation is serialized and memoized inside the shared
:class:`~repro.api.session.Session` — the second job blocks on the
session's grid lock and then renders from the memo.

Everything here is thread-aware by construction: job state is mutated from
the background thread that runs the simulation and read from the event
loop, so each job guards its fields with a lock and exposes an immutable
:meth:`~ServeJob.snapshot`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

from repro import knobs, resilience
from repro.api.session import Request, Session
from repro.runtime import SimJob

#: Job lifecycle states (the ``status`` field of the job envelope).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Finished jobs kept for late pollers before the oldest are dropped.
FINISHED_JOBS_KEPT = 64

#: Width of the manager's dedicated job thread pool.  Cold jobs must not
#: run on the event loop's default executor: that pool is shared with the
#: warm-path ``asyncio.to_thread`` renders and the warmth probes, which a
#: few long simulations would otherwise starve.
MAX_CONCURRENT_JOBS = 4

#: ``Retry-After`` a shed cold request is told to wait: by then at least
#: one pool slot has usually turned over on the micro grids, and a client
#: that retries is re-admitted or re-shed — never queued invisibly.
SHED_RETRY_AFTER = 1.0


class PoolSaturated(RuntimeError):
    """Cold admission refused: the job pool is at its depth bound.

    The router maps this to ``503`` + ``Retry-After`` — the load-shedding
    contract.  Shedding beats queueing because every accepted cold job
    holds memory and a progress registration until some client collects
    it; an unbounded backlog is how an overloaded server turns into an
    unresponsive one.
    """

    def __init__(self, depth: int) -> None:
        super().__init__(f"job pool saturated ({depth} jobs in flight)")
        self.depth = depth
        self.retry_after = SHED_RETRY_AFTER


class Draining(RuntimeError):
    """Cold admission refused: the server is shutting down.

    Warm answers and job polls keep flowing while the drain window runs;
    only *new* simulation work is turned away (``503``), so clients can
    still collect finished results from a terminating replica.
    """

    def __init__(self) -> None:
        super().__init__("server is draining; no new cold work is admitted")
        self.retry_after = resilience.drain_seconds()


class ServeJob:
    """One background computation, addressed by its request's content key."""

    def __init__(self, key: str, request: Request, total: int) -> None:
        #: Request content key (also the job's URL segment).
        self.key = key
        #: The :class:`FigureQuery` / :class:`SweepSpec` / :class:`DseSpec`
        #: being answered (its ``kind`` is the envelope's ``request_kind``).
        self.request = request
        self._lock = threading.Lock()
        self._status = PENDING  # guarded-by: _lock
        self._done = 0  # guarded-by: _lock
        self._total = total  # guarded-by: _lock
        self._error: str | None = None  # guarded-by: _lock
        #: Finished response body (the same bytes the warm path serves).
        self.body: bytes | None = None
        self.etag: str | None = None
        #: Engine-grid jobs this computation actually executed.
        self.executed = 0
        #: Set once the job is done or failed (tests and benches wait on it).
        self.finished = threading.Event()

    # -- mutation (background thread) ----------------------------------
    def progress(self, done: int, total: int) -> None:
        """Runner ``on_result`` callback: stream live (done, total)."""
        with self._lock:
            self._status = RUNNING
            self._done = done
            self._total = total

    def start(self) -> None:
        with self._lock:
            if self._status == PENDING:
                self._status = RUNNING

    def finish(self, body: bytes, etag: str, executed: int) -> None:
        with self._lock:
            self._status = DONE
            self._done = self._total
            self.body = body
            self.etag = etag
            self.executed = executed
        self.finished.set()

    def fail(self, message: str) -> None:
        with self._lock:
            self._status = FAILED
            self._error = message
        self.finished.set()

    # -- observation (event loop) --------------------------------------
    @property
    def status(self) -> str:
        with self._lock:
            return self._status

    def snapshot(self) -> dict:
        """Consistent, JSON-safe view of the job's state."""
        with self._lock:
            record: dict = {
                "key": self.key,
                "request_kind": self.request.kind,
                "request": self.request.to_record(),
                "status": self._status,
                "done": self._done,
                "total": self._total,
            }
            if self._error is not None:
                record["error"] = self._error
            return record


class JobManager:
    """Registry of background jobs over one shared :class:`Session`."""

    def __init__(self, session: Session, max_depth: int | None = None) -> None:
        self.session = session
        #: Unfinished jobs admitted before cold requests shed with 503.
        #: Deeper than the thread pool on purpose: a short queue absorbs
        #: bursts, the bound keeps it from becoming an invisible backlog.
        self.max_depth = (
            max_depth if max_depth is not None else knobs.get("REPRO_JOB_POOL_DEPTH")
        )
        self._jobs: dict[str, ServeJob] = {}  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=MAX_CONCURRENT_JOBS, thread_name_prefix="repro-serve-job"
        )

    # ------------------------------------------------------------------
    # Warmth probe
    # ------------------------------------------------------------------
    def classify(self, request: Request) -> tuple[list[SimJob], int]:
        """``(still-missing jobs, full grid size)`` for one request.

        Reached only by a request with no stored body (the router probes
        :meth:`Session.stored_body` first).  No missing jobs means warm:
        every needed job is memoized or already in the result cache, so the
        request can be rendered synchronously with zero engine executions.
        The probe never reads a cache entry — :meth:`ResultCache.missing`
        queries the cache's index and pack tables.  The grid size is what a
        cold job advertises as its progress ``total``: the runner's
        ``on_result`` counts cache hits as instantly done, so the
        denominator must be the whole grid, not just the misses.
        """
        jobs = self.session.required_jobs(request)
        if not jobs:
            return [], 0
        cache = self.session.cache
        if cache is None:
            return jobs, len(jobs)
        keys = [job.key() for job in jobs]
        absent = set(cache.missing(keys))
        return [job for job, key in zip(jobs, keys) if key in absent], len(jobs)

    # ------------------------------------------------------------------
    # Submission + coalescing
    # ------------------------------------------------------------------
    def get(self, key: str) -> ServeJob | None:
        with self._lock:
            return self._jobs.get(key)

    def coalesce(self, key: str, request: Request, total: int) -> tuple[ServeJob, bool]:
        """The in-flight job for ``key``, creating one if none is running.

        Returns ``(job, created)``; ``created`` tells the caller to actually
        start the computation.  A finished job under the same key is only
        replaced because the caller just re-classified the request as cold
        (e.g. the cache was cleared since), so a fresh run is wanted.

        Admission happens here, under the same lock that registers the job,
        so two racing requests can never both squeeze past the depth bound:
        creating a new job raises :class:`Draining` during shutdown and
        :class:`PoolSaturated` past ``max_depth``.  Joining an existing job
        is always allowed — coalescing adds no work.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is not None and not job.finished.is_set():
                return job, False
            if self._draining:
                raise Draining()
            depth = sum(
                1 for other in self._jobs.values() if not other.finished.is_set()
            )
            if depth >= self.max_depth:
                raise PoolSaturated(depth)
            job = ServeJob(key, request, total)
            self._jobs[key] = job
            self._evict_finished_locked()
            return job, True

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new cold work from now on (idempotent).

        Warm renders and job polls are untouched: the drain contract is
        "finish what you accepted, hand out what you finished, take
        nothing new".
        """
        with self._lock:
            self._draining = True

    def drain(self, timeout_seconds: float) -> bool:
        """Wait up to ``timeout_seconds`` for in-flight jobs to finish.

        Returns ``True`` when every job completed inside the window.  Jobs
        still running after the deadline are abandoned to :meth:`close`
        (a simulation cannot be interrupted mid-flight anyway).
        """
        deadline = resilience.Deadline.after(timeout_seconds)
        with self._lock:
            unfinished = [
                job for job in self._jobs.values() if not job.finished.is_set()
            ]
        for job in unfinished:
            if not job.finished.wait(max(0.0, deadline.remaining())):
                return False
        return True

    def _evict_finished_locked(self) -> None:
        """Drop the oldest finished jobs past the keep bound (lock held)."""
        finished = [k for k, job in self._jobs.items() if job.finished.is_set()]
        for key in finished[: max(0, len(finished) - FINISHED_JOBS_KEPT)]:
            del self._jobs[key]

    # ------------------------------------------------------------------
    # Execution (on the manager's dedicated thread pool)
    # ------------------------------------------------------------------
    def start(self, job: ServeJob, etag: str) -> Future:
        """Dispatch one created job onto the manager's thread pool."""
        return self._pool.submit(self.run_job, job, etag)

    def run_job(self, job: ServeJob, etag: str) -> None:
        """Compute the job's response body; never raises (fails the job)."""
        job.start()
        try:
            body, executed = self.render(job.request, on_result=job.progress, key=job.key)
        except Exception as error:  # the failure belongs to the poller
            job.fail(f"{type(error).__name__}: {error}")
            return
        job.finish(body, etag, executed)

    def render(
        self, request: Request, on_result=None, *, key: str | None = None
    ) -> tuple[bytes, int]:
        """The response body for ``request``, plus jobs executed to build it.

        Reached once the router has found no stored body for the request,
        so it renders without probing again (:meth:`Session.render_body`)
        and stores the body; ``key`` is the request's content key when the
        caller already has it.  The body is byte-identical to
        ``python -m repro figure|sweep|dse`` output.
        """
        return self.session.render_body(
            request, request.key() if key is None else key, on_result=on_result
        )

    def close(self) -> None:
        """Stop accepting jobs and drop queued ones.

        Running jobs finish on their own threads (a simulation cannot be
        interrupted mid-flight), but anything still queued is cancelled —
        otherwise the pool's non-daemon workers would drain the whole queue
        before interpreter exit lets go.
        """
        self._pool.shutdown(wait=False, cancel_futures=True)
