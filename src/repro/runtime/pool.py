"""The process-wide persistent worker pool behind the batch runner.

:class:`WorkerPool` keeps one :class:`concurrent.futures.ProcessPoolExecutor`
alive for the whole process, so a figure sequence (one batch per experiment
grid) pays pool start-up once and keeps every per-worker memo (materialised
layers, derived operand structures) warm across batches.  The executor is
created lazily on first use, grows when a batch asks for more workers than
it was built with, is shared by every runner, and is shut down atexit.

Environment knob:

* ``REPRO_POOL=persistent`` (default) — reuse one process-wide executor
  across batches.
* ``REPRO_POOL=remote`` — dispatch chunks to the distributed fabric's pull
  queue instead of local processes; external ``python -m repro worker``
  processes claim and execute them (see :mod:`repro.fabric`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor

from repro import knobs

#: Valid values of the ``REPRO_POOL`` environment knob (canonical home:
#: :mod:`repro.knobs`; re-exported here for existing importers).
POOL_MODES = knobs.POOL_MODES


def pool_mode_from_env() -> str:
    """The pool mode the environment asks for (default: ``persistent``)."""
    return knobs.get("REPRO_POOL")


def pool_context():
    """Prefer fork workers: they inherit the loaded modules, so tiny jobs do
    not pay an interpreter start-up and re-import per worker."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class WorkerPool:
    """A lazily created, growable, reusable process-pool executor.

    The underlying executor is built on the first :meth:`executor` call and
    handed back to every later caller.  Asking for *more* workers than the
    pool currently has installs a wider executor; asking for fewer just
    leaves the extra workers idle, which costs nothing while they wait.

    Safe under concurrent batches (the serving front-end runs several
    :meth:`BatchRunner.run` calls at once): creation and replacement are
    lock-guarded, and a replaced executor is *retired*, never torn down in
    place — a concurrent batch still submitting to it finishes on the old
    (narrower) pool, and the retiree is reaped by :meth:`shutdown` /
    atexit.  Growth happens at most a handful of times per process, so the
    idle retirees are a bounded cost.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None  # guarded-by: _lock
        self._width = 0  # guarded-by: _lock
        self._retired: list[ProcessPoolExecutor] = []  # guarded-by: _lock
        self._lock = threading.Lock()
        _LIVE_POOLS.add(self)

    @property
    def width(self) -> int:
        """Worker count of the live executor (0 when none exists yet)."""
        with self._lock:
            return self._width if self._executor is not None else 0

    def executor(self, max_workers: int) -> ProcessPoolExecutor:
        """The shared executor, (re)built to hold at least ``max_workers``.

        A broken executor (a worker died; the pool refuses further work) is
        replaced instead of handed back, so one crashed batch cannot
        permanently poison every later batch of the process.
        """
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        with self._lock:
            if self._executor is not None and (
                self._width < max_workers
                or getattr(self._executor, "_broken", False)
            ):
                self._retired.append(self._executor)
                self._executor = None
                self._width = 0
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=max_workers, mp_context=pool_context()
                )
                self._width = max_workers
            return self._executor

    def reap_retired(self) -> int:
        """Shut down every retired executor; returns how many were reaped.

        Retirees normally drain when :meth:`shutdown` runs, but a pool that
        is never shut down — a batch crashed before its runner finished, or
        the owner simply dropped the reference — would keep the retirees'
        worker processes alive for the rest of the interpreter's life.  The
        module-level atexit sweep calls this on every surviving pool.
        """
        with self._lock:
            retirees = list(self._retired)
            self._retired = []
        for executor in retirees:
            executor.shutdown(wait=True, cancel_futures=True)
        return len(retirees)

    def shutdown(self) -> None:
        """Tear down the executor and every retiree (lazily rebuilt on use)."""
        with self._lock:
            executors = list(self._retired)
            if self._executor is not None:
                executors.append(self._executor)
            self._executor = None
            self._width = 0
            self._retired = []
        for executor in executors:
            executor.shutdown(wait=True, cancel_futures=True)


#: Every live WorkerPool, so the atexit sweep below can reach pools whose
#: owners never called shutdown().  Weak: registration must not keep a
#: dropped pool (and its executors) alive on its own.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def sweep_retired_pools() -> int:
    """Reap the retired executors of every surviving pool (atexit hook)."""
    return sum(pool.reap_retired() for pool in list(_LIVE_POOLS))


atexit.register(sweep_retired_pools)


# ----------------------------------------------------------------------
# The process-wide shared pool (what ``REPRO_POOL=persistent`` reuses)
# ----------------------------------------------------------------------
_shared_pool: WorkerPool | None = None


def shared_pool() -> WorkerPool:
    """The process-wide :class:`WorkerPool`, created on first use."""
    global _shared_pool
    if _shared_pool is None:
        _shared_pool = WorkerPool()
        atexit.register(shutdown_shared_pool)
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Shut the shared pool down (registered atexit; safe to call anytime)."""
    if _shared_pool is not None:
        _shared_pool.shutdown()


def reset_shared_pool() -> None:
    """Tear down and forget the shared pool (tests use this between modes)."""
    global _shared_pool
    shutdown_shared_pool()
    _shared_pool = None


def acquire_executor(mode: str, max_workers: int) -> Executor:
    """The process-wide executor a batch under ``mode`` submits to.

    It outlives the batch, so the caller must not shut it down.
    """
    if mode == "remote":
        # The fabric's queue-backed executor: chunks become leasable work
        # items that external ``python -m repro worker`` processes claim over
        # HTTP.
        from repro.fabric import runtime_executor

        return runtime_executor()
    if mode != "persistent":
        raise ValueError(f"unknown pool mode {mode!r}; expected one of {POOL_MODES}")
    return shared_pool().executor(max_workers)
