"""The ``Executor`` face of the fabric queue.

:class:`RemoteExecutor` is what ``REPRO_POOL=remote`` hands the batch
runner in place of a process pool.  It implements exactly the slice of the
:class:`concurrent.futures.Executor` contract the runner uses — ``submit``
returning a future, ``shutdown`` — so the runner's cost-grouped LPT
scheduling, sliding dispatch window, streaming caching and ``on_result``
progress all work unchanged; only *where* a chunk executes differs.

The runner's dispatch call is
``executor.submit(execute_chunk, jobs, trial_cache=<cache dir or None>)``;
the submission becomes a keyed work item on the
:class:`~repro.fabric.queue.WorkQueue` (the keys are computed here, on the
coordinator, so uploads can be verified against them) and the returned
future resolves to the same ``(outcomes, error)`` pair a local pool worker
would have produced.

There is deliberately no retry or timeout logic here: give-up behaviour
belongs to the queue's :class:`~repro.resilience.LeasePolicy` (an item
that burns its lease budget resolves its future with the give-up error),
and the runner blocks on futures exactly as it does on a local pool.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, Future

from repro.fabric.queue import WorkQueue
from repro.runtime.jobs import SimJob, execute_chunk


class RemoteExecutor(Executor):
    """Dispatches the runner's chunks to the fabric's pull queue."""

    def __init__(self, queue: WorkQueue) -> None:
        self.queue = queue

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if fn is not execute_chunk:
            raise TypeError(
                "RemoteExecutor only dispatches execute_chunk batches, "
                f"got {fn!r}"
            )
        if len(args) != 1 or set(kwargs) != {"trial_cache"}:
            raise TypeError(
                "execute_chunk takes one positional argument and trial_cache"
            )
        jobs: list[SimJob] = args[0]
        # The runner ships its cache as a directory across the pool boundary
        # (see BatchRunner._execute_stream).
        trial_cache = kwargs["trial_cache"]
        extras_dir = None if trial_cache is None else os.fspath(trial_cache)
        chunk = [(job.key(), job) for job in jobs]
        return self.queue.submit_chunk(chunk, extras_dir=extras_dir)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """No-op: the queue (and any attached workers) outlive one batch."""
