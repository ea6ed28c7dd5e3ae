"""Parallel batched simulation runtime with a persistent result cache.

This package is the execution seam of the repository: every simulation sweep
— the end-to-end and layer-wise experiment harnesses, the oracle mapper's
candidate-dataflow trials, the examples and the benchmark suite — expresses
its work as a flat grid of :class:`SimJob` descriptions and submits it to a
:class:`BatchRunner`, which deduplicates, answers what it can from the
content-addressed on-disk :class:`ResultCache`, and fans the rest out over a
process pool (or runs them serially for determinism checking; both modes are
bit-identical).

A hardware design is a row of :data:`DESIGN_DATAFLOWS`, the dataflows it may
configure on the shared engine; :func:`run_design` runs one layer on one
design as nested engine jobs through the runner it is given.

See the README's "Batched simulation runtime" section for the job model, the
cache location and the environment knobs.
"""

from repro.runtime.cache import MISS, PruneReport, ResultCache, default_cache_dir
from repro.runtime.cost import estimate_job_cost, job_group_key
from repro.runtime.jobs import (
    CACHE_SCHEMA_VERSION,
    CPU_DESIGN,
    DESIGN_DATAFLOWS,
    DESIGN_ORDER,
    ENGINE_DESIGN,
    SimJob,
    execute_chunk,
    execute_job,
    run_design,
)
from repro.runtime.pool import (
    WorkerPool,
    pool_mode_from_env,
    reset_shared_pool,
    shared_pool,
    shutdown_shared_pool,
)
from repro.runtime.runner import BatchRunner, RunnerStats

__all__ = [
    "MISS",
    "PruneReport",
    "ResultCache",
    "default_cache_dir",
    "estimate_job_cost",
    "job_group_key",
    "CACHE_SCHEMA_VERSION",
    "CPU_DESIGN",
    "DESIGN_DATAFLOWS",
    "DESIGN_ORDER",
    "ENGINE_DESIGN",
    "SimJob",
    "execute_chunk",
    "execute_job",
    "run_design",
    "WorkerPool",
    "pool_mode_from_env",
    "reset_shared_pool",
    "shared_pool",
    "shutdown_shared_pool",
    "BatchRunner",
    "RunnerStats",
]
