"""The job model of the batched simulation runtime.

A :class:`SimJob` describes one independent unit of simulation work — one
SpMSpM layer on one design — as plain data: the accelerator configuration,
the layer (either a :class:`~repro.workloads.layers.LayerSpec` materialised
on the worker, or a concrete operand pair), the RNG seed and an optional
forced dataflow.  Because a job is data, it can be

* shipped to a worker process and executed there (:func:`execute_job`), and
* identified by a stable content hash (:meth:`SimJob.key`) that is the same
  in every process and across interpreter runs, which is what makes the
  on-disk result cache (:mod:`repro.runtime.cache`) correct.

The key deliberately covers *everything the result depends on*: the design,
every configuration field, the layer spec (or the operand structure when
explicit matrices are given), scale, seed and forced dataflow, plus a schema
version that must be bumped whenever the simulator's semantics change.

Design jobs run their engine simulations as nested ``engine`` jobs through
the sweep's own cache (:func:`build_design`), so an engine run shared by
several designs over the same operands executes once.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import os
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass

from repro.arch.config import AcceleratorConfig
from repro.dataflows.base import Dataflow
from repro.sparse.formats import CompressedMatrix
from repro.workloads.layers import LayerSpec, materialize_layer

#: Bump whenever the meaning of a cached result changes (simulator semantics,
#: result record layout, ...).  Stale cache entries then simply never hit.
#: v2: ``LayerSimResult`` gained the declared ``dram`` field and the
#: JSON-record contract of :mod:`repro.metrics.results`.
CACHE_SCHEMA_VERSION = 2

#: The four hardware designs of the paper's comparison, in plot order.
DESIGN_ORDER = ("SIGMA-like", "SpArch-like", "GAMMA-like", "Flexagon")

#: Software baseline design name (the CPU MKL-like cost model).
CPU_DESIGN = "CPU-MKL"

#: Raw engine runs (a forced dataflow on the shared substrate, no design
#: policy) — the unit of the oracle mapper's candidate trials.
ENGINE_DESIGN = "engine"

_KNOWN_DESIGNS = DESIGN_ORDER + (CPU_DESIGN, ENGINE_DESIGN)


#: Default for ``trial_cache``: use the process-wide trial runner.
SHARED_TRIAL_CACHE = "<shared>"


#: Per-process memo of nested runners keyed by cache directory: every job a
#: pool worker executes over the same sweep cache reuses one runner, so the
#: cache's in-memory blob level stays warm across the worker's whole chunk
#: stream instead of re-reading shared engine results from disk per job.
#: Bounded LRU: persistent-pool workers live for the whole process, and each
#: retained runner pins up to one cache's worth of in-memory blobs.
_NESTED_RUNNERS: "OrderedDict[str, object]" = OrderedDict()
_NESTED_RUNNER_LIMIT = 4


def _nested_runner(trial_cache: object):
    """The serial runner nested (trial / shared engine) jobs go through.

    :data:`SHARED_TRIAL_CACHE` resolves to the process-wide trial runner; a
    :class:`~repro.runtime.cache.ResultCache` instance or a directory path
    yields a serial runner over that cache (memoized per directory within
    the process); ``None`` yields a cache-less serial runner (nested work
    executes but memoizes nothing).
    """
    if isinstance(trial_cache, str) and trial_cache == SHARED_TRIAL_CACHE:
        from repro.runtime.runner import trial_runner

        return trial_runner()
    from repro.runtime.cache import ResultCache
    from repro.runtime.runner import BatchRunner

    if trial_cache is not None and not isinstance(trial_cache, ResultCache):
        directory = os.fspath(trial_cache)
        runner = _NESTED_RUNNERS.get(directory)
        if runner is None:
            runner = BatchRunner(parallel=False, cache=ResultCache(directory))
            _NESTED_RUNNERS[directory] = runner
        else:
            _NESTED_RUNNERS.move_to_end(directory)
        while len(_NESTED_RUNNERS) > _NESTED_RUNNER_LIMIT:
            _NESTED_RUNNERS.popitem(last=False)
        return runner
    return BatchRunner(parallel=False, cache=trial_cache)


def build_design(
    design: str,
    config: AcceleratorConfig,
    *,
    trial_cache: object = SHARED_TRIAL_CACHE,
):
    """Instantiate one hardware design; Flexagon gets the oracle mapper.

    The paper configures Flexagon with the most suitable dataflow per layer
    (the offline mapper/compiler of Fig. 3b); the oracle mapper reproduces
    that by simulating the candidate dataflows and picking the fastest.

    ``trial_cache`` controls where nested engine-level jobs — the oracle's
    candidate trials *and* the design's final configured engine run — are
    memoized: the default (:data:`SHARED_TRIAL_CACHE`) routes them through
    the process-wide (env configured) trial runner; a
    :class:`~repro.runtime.cache.ResultCache` instance or a directory path
    gives the design a private serial runner over that cache; ``None``
    disables nested caching entirely.  A
    :class:`~repro.runtime.runner.BatchRunner` forwards its own cache here
    (the live object in-process, the directory across a pool boundary) so
    nested work can never read or write a cache the caller did not choose.

    Because engine jobs are content-addressed by (config, operands, dataflow)
    alone, routing every design's engine run through the same cache
    deduplicates the sweep's hottest redundant work: a fixed-dataflow
    baseline re-simulates exactly the run Flexagon's oracle already trialed
    over the same operands, and Flexagon's own final run re-simulates its
    winning trial.  A cache-less nested runner (``trial_cache=None``) runs
    every engine simulation directly instead.
    """
    from repro.accelerators import (
        FlexagonAccelerator,
        GammaLikeAccelerator,
        SigmaLikeAccelerator,
        SparchLikeAccelerator,
    )

    nested = _nested_runner(trial_cache)
    if design == "Flexagon":
        from repro.core.mapper import OracleMapper

        mapper = OracleMapper(config, runner=nested)
        accelerator = FlexagonAccelerator(config, mapper=mapper)
    else:
        classes = {
            "SIGMA-like": SigmaLikeAccelerator,
            "SpArch-like": SparchLikeAccelerator,
            "GAMMA-like": GammaLikeAccelerator,
        }
        accelerator = classes[design](config)
    if nested.cache is not None:
        accelerator.engine_job_runner = nested
    return accelerator


@dataclass(frozen=True)
class SimJob:
    """One independent simulation unit of a sweep.

    Exactly one of two layer descriptions must be provided:

    * ``spec`` (with ``scale`` and ``seed``) — the operands are generated on
      the executing worker, so the job itself stays tiny, or
    * ``a`` and ``b`` — explicit operands, content-addressed by hashing their
      structure, the only thing a simulation reads of them (used by the
      oracle mapper's candidate trials).
    """

    design: str
    config: AcceleratorConfig
    spec: LayerSpec | None = None
    scale: float = 1.0
    seed: int | None = None
    dataflow: Dataflow | None = None
    layer_name: str = ""
    a: CompressedMatrix | None = None
    b: CompressedMatrix | None = None

    def __post_init__(self) -> None:
        if self.design not in _KNOWN_DESIGNS:
            raise ValueError(
                f"unknown design {self.design!r}; expected one of {_KNOWN_DESIGNS}"
            )
        has_operands = self.a is not None and self.b is not None
        if (self.a is None) != (self.b is None):
            raise ValueError("operands a and b must be given together")
        if has_operands == (self.spec is not None):
            raise ValueError("provide either a layer spec or an (a, b) operand pair")
        if self.design == ENGINE_DESIGN and self.dataflow is None:
            raise ValueError("engine jobs must force a dataflow")

    # ------------------------------------------------------------------
    def resolved_seed(self) -> int | None:
        """The RNG seed actually used when materialising from a spec."""
        if self.spec is None:
            return None
        return self.seed if self.seed is not None else self.spec.deterministic_seed()

    def operands(self) -> tuple[CompressedMatrix, CompressedMatrix]:
        """The concrete ``(A, B)`` pair this job simulates."""
        if self.a is not None and self.b is not None:
            return self.a, self.b
        return materialize_layer(self.spec, scale=self.scale, seed=self.resolved_seed())

    # ------------------------------------------------------------------
    def key(self) -> str:
        """Stable content hash identifying this job across processes.

        Built from a canonical JSON rendering of every input the result
        depends on and hashed with SHA-256, so it does not depend on
        ``PYTHONHASHSEED``, interpreter build or process identity.
        """
        payload: dict[str, object] = {
            "schema": CACHE_SCHEMA_VERSION,
            "design": self.design,
            # The CPU baseline never reads the accelerator config, so it is
            # normalised out of CPU keys: one cached CPU result serves every
            # accelerator design point over the same operands.
            "config": _config_blob(self.config) if self.design != CPU_DESIGN else None,
            "dataflow": self.dataflow.name if self.dataflow is not None else None,
            "layer_name": self.layer_name,
        }
        if self.spec is not None:
            payload["spec"] = asdict(self.spec)
            payload["scale"] = self.scale
            payload["seed"] = self.resolved_seed()
        else:
            payload["a"] = _matrix_digest(self.a)
            payload["b"] = _matrix_digest(self.b)
        if self.design == CPU_DESIGN:
            from repro.accelerators.cpu import CpuConfig

            payload["cpu_config"] = asdict(CpuConfig())
        encoded = json.dumps(payload, sort_keys=True, default=_json_default)
        return hashlib.sha256(encoded.encode()).hexdigest()


def execute_job(job: SimJob, *, trial_cache: object = SHARED_TRIAL_CACHE):
    """Run one job to completion and return its result record.

    This is a module-level function (not a method) so that
    :class:`concurrent.futures.ProcessPoolExecutor` can pickle it by
    reference and ship only the job data to the worker.
    ``trial_cache`` is forwarded to :func:`build_design`.
    """
    a, b = job.operands()
    if job.design == CPU_DESIGN:
        from repro.accelerators.cpu import CpuMklLikeBaseline

        return CpuMklLikeBaseline().run_layer(a, b, layer_name=job.layer_name)
    if job.design == ENGINE_DESIGN:
        from repro.accelerators.engine import SpmspmEngine

        return SpmspmEngine(job.config).run_layer(
            job.dataflow, a, b, layer_name=job.layer_name
        )
    accelerator = build_design(job.design, job.config, trial_cache=trial_cache)
    return accelerator.run_layer(
        a, b, dataflow=job.dataflow, layer_name=job.layer_name
    )


def execute_chunk(
    jobs: list[SimJob], *, trial_cache: object = SHARED_TRIAL_CACHE
) -> tuple[list, BaseException | None]:
    """Run a list of jobs sequentially in this process, in the given order.

    The parallel runner's dispatch unit: jobs over the same operand pair are
    chunked together (see :func:`repro.runtime.cost.job_group_key`) so the
    worker materialises the layer once, the per-pair derived-structure memos
    stay warm, and — with the chunk's most expensive job ordered first — the
    cheaper jobs of the chunk hit the engine results the first one cached.

    Returns ``(outcomes, error)``: the results of the jobs that completed
    (a prefix of ``jobs``) and the exception that stopped the chunk, if any.
    Shipping the completed prefix back alongside the error is what keeps the
    runner's crash-resume contract — every finished result reaches the cache
    — intact when a mid-chunk job blows up in a pool worker.
    """
    outcomes: list = []
    for job in jobs:
        try:
            outcomes.append(execute_job(job, trial_cache=trial_cache))
        except BaseException as error:
            return outcomes, error
    return outcomes, None


# ----------------------------------------------------------------------
# Hashing helpers
# ----------------------------------------------------------------------
#: Per-instance digest memo: the oracle mapper keys up to six candidate jobs
#: over the same operand pair, so each matrix is hashed once, not per job.
#: Keyed by ``id`` (matrices are unhashable); the weakref callback evicts an
#: entry when its matrix is collected, so a recycled id can never alias.
_MATRIX_DIGESTS: dict[int, tuple["weakref.ref[CompressedMatrix]", str]] = {}


def _matrix_digest(matrix: CompressedMatrix) -> str:
    """Content hash of a matrix's structure (layout, shape, pointers, indices)."""
    # ``id`` here is only a *memo* key for the content hash below — it never
    # reaches the digest, so the returned key stays process-independent.
    entry = _MATRIX_DIGESTS.get(id(matrix))  # repro: allow[determinism]
    if entry is not None and entry[0]() is matrix:
        return entry[1]
    digest = hashlib.sha256()
    digest.update(matrix.layout.value.encode())
    digest.update(f"{matrix.nrows}x{matrix.ncols}".encode())
    digest.update(matrix.pointers.tobytes())
    digest.update(matrix.indices.tobytes())
    value = digest.hexdigest()
    key = id(matrix)  # repro: allow[determinism]
    _MATRIX_DIGESTS[key] = (
        weakref.ref(matrix, lambda _ref: _MATRIX_DIGESTS.pop(key, None)),
        value,
    )
    return value


@functools.lru_cache(maxsize=64)
def _config_blob(config: AcceleratorConfig) -> str:
    """Canonical JSON of a (frozen, hashable) accelerator configuration."""
    return json.dumps(asdict(config), sort_keys=True)


def _json_default(value: object) -> object:
    """JSON encoder fallback for the enum members inside specs/configs."""
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")
