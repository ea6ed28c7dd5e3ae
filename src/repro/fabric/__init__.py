"""Distributed execution fabric: pull workers behind the batch runner.

``REPRO_POOL=remote`` swaps the runner's local process pool for a
coordinator-side work queue: dispatch chunks become lease-claimable items,
external ``python -m repro worker <url>`` processes pull, execute and
upload them, and every completed result lands in the coordinator's
content-addressed cache exactly as a local run would have written it —
same cache keys, same figure bytes.  See the README's "Distributed
sweeps" section for the operational story and
:mod:`repro.fabric.queue` for the lease/verification protocol.
"""

from repro.fabric.wire import IntegrityError
from repro.fabric.queue import (
    FabricError,
    RemoteWorkerError,
    WorkItem,
    WorkQueue,
    lease_seconds_from_env,
    max_attempts_from_env,
)
from repro.fabric.executor import RemoteExecutor
from repro.fabric.worker import (
    Chaos,
    RecordingCache,
    Worker,
    WorkerReport,
    run_worker,
)
from repro.fabric.sync import PullReport, pull_cache, pull_loop
from repro.fabric.coordinator import (
    Coordinator,
    reset_shared_fabric,
    runtime_executor,
    set_shared_coordinator,
    shared_coordinator,
    shared_queue,
)

__all__ = [
    "Chaos",
    "Coordinator",
    "FabricError",
    "IntegrityError",
    "PullReport",
    "RecordingCache",
    "RemoteExecutor",
    "RemoteWorkerError",
    "Worker",
    "WorkerReport",
    "WorkItem",
    "WorkQueue",
    "lease_seconds_from_env",
    "max_attempts_from_env",
    "pull_cache",
    "pull_loop",
    "reset_shared_fabric",
    "run_worker",
    "runtime_executor",
    "set_shared_coordinator",
    "shared_coordinator",
    "shared_queue",
]
