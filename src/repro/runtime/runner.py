"""The batched simulation runner: fan a job grid out, memoize the results.

:class:`BatchRunner` is the single entry point every sweep in this repository
goes through (the end-to-end and layer-wise experiment harnesses, the oracle
mapper's candidate trials, the examples and the benchmark suite).  It takes a
flat list of :class:`~repro.runtime.jobs.SimJob` descriptions and returns
their results in order, doing four things along the way:

1. **Cache lookup** — jobs whose key is already in the
   :class:`~repro.runtime.cache.ResultCache` are never re-executed.  The
   pre-dispatch scan is batched (:meth:`ResultCache.get_many`): one index
   refresh per batch, and a read only for the keys the index holds.
2. **Deduplication** — identical jobs appearing more than once in a batch
   are executed once; result records are immutable by contract
   (:mod:`repro.metrics.results`), so the duplicates share one record.
3. **Scheduling** — cache-missing jobs are grouped by the operand pair they
   simulate (so one worker materialises each layer exactly once) and the
   groups are dispatched longest-predicted-first
   (:mod:`repro.runtime.cost`), which keeps an expensive Flexagon straggler
   from landing at the tail of the batch.
4. **Execution** — remaining jobs run either serially (``parallel=False``,
   the determinism-checking reference) or streamed over a process pool via
   ``submit``/``as_completed``: every result is written to the cache the
   moment it lands (a crashed sweep resumes from what it finished) and an
   optional ``on_result`` callback observes batch progress live.  Jobs are
   pure functions of their inputs, so all modes produce bit-identical
   results; the parallel mode merely uses more cores.

Environment knobs (read when a runner is constructed without explicit
arguments):

* ``REPRO_WORKERS=N``    — process-pool width.  Default: the full
  ``os.cpu_count()``; set ``REPRO_WORKERS`` to cap it on shared machines.
  ``REPRO_WORKERS=1`` runs serially under the persistent pool; under
  ``REPRO_POOL=remote`` it bounds the chunks in flight on the fabric to one.
  ``parallel=False`` (``--serial``) runs serially in every mode.
* ``REPRO_POOL``         — ``persistent`` (default: one process-wide pool
  reused across batches; see :mod:`repro.runtime.pool`) or ``remote``
  (dispatch chunks to the distributed fabric's pull queue, executed by
  external ``python -m repro worker`` processes; see :mod:`repro.fabric` —
  ``REPRO_LEASE_SECONDS``/``REPRO_MAX_ATTEMPTS`` tune its leases).  Both
  modes are bit-equivalent: a chunk runs the same ``execute_chunk`` path
  wherever it executes, so cache keys and result bytes never depend on
  where the work ran.
* ``REPRO_CACHE=0``      — run without any result cache.
* ``REPRO_CACHE_DIR``    — cache directory (see :mod:`repro.runtime.cache`).
"""

from __future__ import annotations

import functools
import heapq
import math
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from typing import Callable

from repro import knobs
from repro.runtime.cache import ResultCache
from repro.runtime.cost import estimate_job_cost, job_group_key
from repro.runtime.jobs import SimJob, execute_chunk, execute_job
from repro.runtime.pool import (
    acquire_executor,
    pool_mode_from_env,
    shutdown_shared_pool,
)

#: Default sentinel so ``cache=None`` can explicitly mean "no cache".
_DEFAULT = object()

#: Progress callback signature: ``on_result(done_jobs, total_jobs)``.
ProgressCallback = Callable[[int, int], None]

#: Smallest chunk size the cost scheduler will split an operand group into —
#: sized to hold one layer across every design (5 jobs) with headroom, so
#: small batches keep their worker affinity instead of scattering.
_MIN_GROUP_SPLIT = 8


def _env_workers() -> int:
    width = knobs.get("REPRO_WORKERS")
    if width is not None:
        return width
    # Use every core the machine has.  (Earlier versions silently capped
    # this at 8; set REPRO_WORKERS explicitly to bound the width instead.)
    return max(1, os.cpu_count() or 1)


def _env_cache() -> ResultCache | None:
    if not knobs.get("REPRO_CACHE"):
        return None
    return ResultCache()


@dataclass
class RunnerStats:
    """Counters a :class:`BatchRunner` accumulates over its lifetime."""

    #: Jobs handed to :meth:`BatchRunner.run` in total.
    submitted: int = 0
    #: Jobs answered from the result cache.
    cache_hits: int = 0
    #: Jobs not found in the cache.
    cache_misses: int = 0
    #: Jobs actually simulated (cache misses minus in-batch duplicates).
    executed: int = 0
    #: Wall-clock seconds spent executing jobs (serial or in the pool).
    exec_seconds: float = 0.0
    #: Wall-clock seconds spent keying jobs and scanning the cache for hits.
    cache_scan_seconds: float = 0.0
    #: Most dispatch units (chunks) simultaneously in flight in the pool.
    peak_in_flight: int = 0

    def as_row(self) -> dict[str, object]:
        """Row-form summary (for the benchmark session report)."""
        return {
            "submitted": self.submitted,
            "cache hits": self.cache_hits,
            "cache misses": self.cache_misses,
            "executed": self.executed,
            "exec seconds": round(self.exec_seconds, 3),
            "cache scan seconds": round(self.cache_scan_seconds, 3),
            "peak in flight": self.peak_in_flight,
        }


class BatchRunner:
    """Executes simulation job grids with caching and optional parallelism."""

    def __init__(
        self,
        parallel: bool | None = None,
        max_workers: int | None = None,
        cache: ResultCache | None | object = _DEFAULT,
        pool_mode: str | None = None,
        schedule: str = "cost",
        on_result: ProgressCallback | None = None,
    ) -> None:
        # The cost schedule (see :meth:`_plan_chunks`) is the only one; the
        # keyword stays so callers that name it explicitly keep working.
        if schedule != "cost":
            raise ValueError(f"schedule must be 'cost', got {schedule!r}")
        self.max_workers = max_workers if max_workers is not None else _env_workers()
        self.cache = _env_cache() if cache is _DEFAULT else cache
        self.pool_mode = pool_mode if pool_mode is not None else pool_mode_from_env()
        # ``None``: parallel whenever the local pool has more than one worker,
        # and always in remote mode, where ``max_workers`` only bounds the
        # chunks in flight on the fabric.
        self.parallel = (parallel is None or parallel) and (
            self.max_workers > 1 or self.pool_mode == "remote"
        )
        #: Default progress callback applied to every :meth:`run` call.
        self.on_result = on_result
        self.stats = RunnerStats()  # guarded-by: _stats_lock
        #: Guards the counters: :meth:`run` may be entered from several
        #: threads at once (the serving front-end's background jobs), and
        #: ``+=`` on a dataclass attribute is not atomic.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    def run(
        self, jobs: list[SimJob], on_result: ProgressCallback | None = None
    ) -> list:
        """Execute every job and return their results in submission order.

        ``on_result`` (or the runner-wide default) is called as
        ``on_result(done, total)`` once after the cache scan and then after
        every result that lands, so long sweeps can surface a live counter.
        Results stream into the cache as they complete: if the batch dies
        midway, everything finished so far is already on disk and a re-run
        only executes the remainder.
        """
        callback = on_result if on_result is not None else self.on_result
        jobs = list(jobs)
        total = len(jobs)
        with self._stats_lock:
            self.stats.submitted += total
        results: list = [None] * total

        # Batched pre-dispatch cache scan over the unique keys.
        scan_start = time.perf_counter()
        #: key -> (job, [indices that want this key's result]).
        unique: dict[str, tuple[SimJob, list[int]]] = {}
        for index, job in enumerate(jobs):
            entry = unique.setdefault(job.key(), (job, []))
            entry[1].append(index)
        hits = (
            self.cache.get_many(list(unique)) if self.cache is not None else {}
        )
        done = 0
        for key, value in hits.items():
            _job, indices = unique[key]
            for index in indices:
                results[index] = value
            with self._stats_lock:
                self.stats.cache_hits += len(indices)
            done += len(indices)
        with self._stats_lock:
            self.stats.cache_scan_seconds += time.perf_counter() - scan_start
        if callback is not None and total:
            callback(done, total)

        misses = [
            (key, job) for key, (job, _indices) in unique.items() if key not in hits
        ]
        for _key, _job in misses:
            with self._stats_lock:
                self.stats.cache_misses += len(unique[_key][1])
        if misses:
            exec_start = time.perf_counter()
            try:
                for key, outcome in self._execute_stream(misses):
                    with self._stats_lock:
                        self.stats.executed += 1
                    if self.cache is not None:
                        self.cache.put(key, outcome)
                    _job, indices = unique[key]
                    # Duplicates share the record: results are immutable by
                    # contract (frozen dataclasses, replace-based updates),
                    # so aliasing can never corrupt another slot.
                    for index in indices:
                        results[index] = outcome
                    done += len(indices)
                    if callback is not None:
                        callback(done, total)
            finally:
                with self._stats_lock:
                    self.stats.exec_seconds += time.perf_counter() - exec_start
        return results

    def run_one(self, job: SimJob):
        """Convenience wrapper: run a single job."""
        return self.run([job])[0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_stream(self, misses: list[tuple[str, SimJob]]):
        """Yield ``(key, result)`` pairs as the missing jobs complete.

        Nested work (oracle trials, design engine runs) goes through *this*
        runner's cache, and stays uncached when this runner has none.
        In-process execution hands over the live cache object (keeping its
        in-memory memo warm across jobs); the pool path ships the directory
        instead, since the memo dict should not be pickled to every worker.
        """
        if not self.parallel or len(misses) < 2:
            run = functools.partial(execute_job, trial_cache=self.cache)
            if misses:
                with self._stats_lock:
                    self.stats.peak_in_flight = max(self.stats.peak_in_flight, 1)
            for chunk in self._plan_chunks(misses):
                for key, job in chunk:
                    yield key, run(job)
            return

        chunks = self._plan_chunks(misses)
        trial_dir = None if self.cache is None else str(self.cache.directory)
        workers = min(self.max_workers, len(chunks))
        executor = acquire_executor(self.pool_mode, workers)
        futures = {}
        try:
            # Submit with a sliding window of at most ``workers`` chunks, so
            # the runner's width cap holds even when the shared persistent
            # pool is wider than this runner asked for — and so
            # ``peak_in_flight`` reports chunks genuinely in flight.
            pending = iter(chunks)
            outstanding: set = set()

            def submit_next() -> bool:
                chunk = next(pending, None)
                if chunk is None:
                    return False
                future = executor.submit(
                    execute_chunk, [job for _key, job in chunk], trial_cache=trial_dir
                )
                futures[future] = chunk
                outstanding.add(future)
                return True

            while len(outstanding) < workers and submit_next():
                pass
            while outstanding:
                with self._stats_lock:
                    self.stats.peak_in_flight = max(
                        self.stats.peak_in_flight, len(outstanding)
                    )
                completed, still_running = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                outstanding = set(still_running)
                first_error: BaseException | None = None
                for future in completed:
                    chunk = futures[future]
                    try:
                        outcomes, error = future.result()
                    except BaseException as exc:
                        # Pool-level failure of this chunk (e.g. its worker
                        # was killed).  Keep draining the wave's siblings —
                        # their finished results must still reach the cache.
                        if first_error is None:
                            first_error = exc
                        continue
                    # Yield every completed result of the wave — including
                    # the failing chunk's finished prefix — before
                    # propagating a failure, so everything that finished
                    # still reaches the cache (the crash-resume contract).
                    for (key, _job), outcome in zip(chunk, outcomes):
                        yield key, outcome
                    if error is not None and first_error is None:
                        first_error = error
                if first_error is not None:
                    raise first_error
                while len(outstanding) < workers and submit_next():
                    pass
        except BaseException as exc:
            for future in futures:
                future.cancel()
            if isinstance(exc, BrokenExecutor):
                # The shared persistent pool is dead; drop it so the next
                # batch lazily rebuilds a fresh one instead of failing
                # forever (public-API counterpart of WorkerPool's own
                # broken-executor check).
                shutdown_shared_pool()
            raise

    def _plan_chunks(
        self, misses: list[tuple[str, SimJob]]
    ) -> list[list[tuple[str, SimJob]]]:
        """Partition cache-missing jobs into ordered dispatch units.

        Jobs are grouped by operand-pair identity (one worker materialises
        each layer once), ordered most-expensive-first *within* a group (so
        the group's Flexagon job caches the engine runs its siblings then
        hit), and the groups are packed longest-predicted-first onto a
        bounded number of chunks (LPT bin packing over ``4 x max_workers``
        bins) so no expensive straggler starts last and dispatch overhead
        stays flat no matter how many layers the sweep has.  Groups larger
        than an even per-worker share are split so a single giant group
        cannot serialise the batch.
        """
        groups: dict[tuple, list[tuple[float, str, SimJob]]] = {}
        order: list[tuple] = []
        for key, job in misses:
            group = job_group_key(job)
            if group not in groups:
                groups[group] = []
                order.append(group)
            groups[group].append((estimate_job_cost(job), key, job))

        # Floor the split size at a typical operand group (one layer across
        # every design plus headroom): with more workers than misses the
        # even-share cap would otherwise degenerate to 1 and scatter each
        # group's jobs across workers, defeating the affinity that makes
        # materialisation and engine-result sharing pay off.
        cap = max(
            _MIN_GROUP_SPLIT,
            math.ceil(len(misses) / max(1, self.max_workers)),
        )
        parts: list[tuple[float, int, list[tuple[str, SimJob]]]] = []
        for position, group in enumerate(order):
            members = groups[group]
            members.sort(key=lambda item: -item[0])
            for start in range(0, len(members), cap):
                part = members[start : start + cap]
                parts.append(
                    (
                        sum(cost for cost, _key, _job in part),
                        position,
                        [(key, job) for _cost, key, job in part],
                    )
                )
        # Longest predicted first; original position breaks ties so the
        # schedule stays deterministic for equal-cost groups.
        parts.sort(key=lambda item: (-item[0], item[1]))

        # LPT bin packing: each group part lands in the currently lightest
        # chunk, keeping the per-chunk dispatch overhead bounded while the
        # heaviest work still starts first within every chunk.
        num_chunks = min(len(parts), max(1, self.max_workers) * 4)
        bins: list[list] = [[0.0, index, []] for index in range(num_chunks)]
        heapq.heapify(bins)
        for cost, _position, part in parts:
            lightest = heapq.heappop(bins)
            lightest[0] += cost
            lightest[2].extend(part)
            heapq.heappush(bins, lightest)
        ordered = sorted(bins, key=lambda item: (-item[0], item[1]))
        return [chunk for _cost, _index, chunk in ordered if chunk]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.parallel:
            mode = (
                f"parallel x{self.max_workers} "
                f"[{self.pool_mode} pool, cost schedule]"
            )
        else:
            mode = "serial"
        return f"BatchRunner({mode}, cache={self.cache!r})"
