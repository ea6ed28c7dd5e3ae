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

A hardware design is a row of :data:`DESIGN_DATAFLOWS`; :func:`run_design`
runs one as nested ``engine`` jobs through the sweep's own cache, so an
engine run shared by several designs over the same operands executes once.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import os
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.arch.config import AcceleratorConfig
from repro.core.mapper import OracleMapper
from repro.dataflows.base import Dataflow
from repro.metrics.results import LayerSimResult
from repro.sparse.formats import CompressedMatrix
from repro.sparse.generate import SparsityPattern
from repro.workloads.layers import LayerSpec, materialize_layer

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache
    from repro.runtime.runner import BatchRunner

#: Bump whenever the meaning of a cached result changes (simulator semantics,
#: result record layout, ...).  Stale cache entries then simply never hit.
#: v2: ``LayerSimResult`` gained the declared ``dram`` field and the
#: JSON-record contract of :mod:`repro.metrics.results`.
CACHE_SCHEMA_VERSION = 2

#: The four hardware designs of the paper's comparison, in plot order, each
#: with the dataflows it may configure, its own choice first.  All four share
#: one substrate and differ only in how the memory controllers deliver the
#: data (Section 4): SIGMA-like reduces clusters of dot products on a FAN
#: with intersection at the controller and no partial-sum memory (Inner
#: Product); SpArch-like merges outer-product partial matrices in a merger
#: tree, its partial-sum memory standing in for SpArch's condenser and merge
#: buffers (Outer Product); GAMMA-like merges per-row partial fibers and
#: keeps the streaming operand in a fiber cache (Gustavson); Flexagon's MRN
#: configures any of the six, chosen per layer by the oracle mapper.
DESIGN_DATAFLOWS: dict[str, tuple[Dataflow, ...]] = {
    "SIGMA-like": (Dataflow.IP_M, Dataflow.IP_N),
    "SpArch-like": (Dataflow.OP_M, Dataflow.OP_N),
    "GAMMA-like": (Dataflow.GUST_M, Dataflow.GUST_N),
    "Flexagon": tuple(Dataflow),
}

DESIGN_ORDER = tuple(DESIGN_DATAFLOWS)

#: Software baseline design name (the CPU MKL-like cost model).
CPU_DESIGN = "CPU-MKL"

#: Raw engine runs (a forced dataflow on the shared substrate, no design
#: policy) — the unit of the oracle mapper's candidate trials.
ENGINE_DESIGN = "engine"

_KNOWN_DESIGNS = DESIGN_ORDER + (CPU_DESIGN, ENGINE_DESIGN)


#: Per-process memo of nested runners keyed by cache directory: every job a
#: pool worker executes over the same sweep cache reuses one runner, so the
#: cache's in-memory blob level stays warm across the worker's whole chunk
#: stream instead of re-reading shared engine results from disk per job.
#: Bounded LRU: persistent-pool workers live for the whole process, and each
#: retained runner pins up to one cache's worth of in-memory blobs.
_NESTED_RUNNERS: OrderedDict[str, BatchRunner] = OrderedDict()
_NESTED_RUNNER_LIMIT = 4


def _nested_runner(trial_cache: ResultCache | str | os.PathLike | None) -> BatchRunner:
    """The serial runner a design job's engine runs go through.

    A :class:`~repro.runtime.cache.ResultCache` yields a serial runner over
    that live cache; a directory path one over that directory (memoized per
    directory within the process); ``None`` a cache-less one, whose nested
    work executes but memoizes nothing.
    """
    from repro.runtime.cache import ResultCache
    from repro.runtime.runner import BatchRunner

    if trial_cache is None or isinstance(trial_cache, ResultCache):
        return BatchRunner(parallel=False, cache=trial_cache)
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


def run_design(
    design: str,
    config: AcceleratorConfig,
    a: CompressedMatrix,
    b: CompressedMatrix,
    *,
    runner: BatchRunner,
    dataflow: Dataflow | None = None,
    layer_name: str = "",
) -> LayerSimResult:
    """Simulate one SpMSpM layer on one hardware design.

    Flexagon configures the dataflow its oracle mapper picks (the offline
    mapper of Fig. 3b: the fastest of six trials), a fixed-dataflow baseline
    the first of its :data:`DESIGN_DATAFLOWS` row.  A forced ``dataflow``
    must be in the design's row; a claimed fabric chunk can carry one that
    is not, so the check raises :class:`ValueError`.

    The configured run is an ``engine`` job through ``runner``.  Engine jobs
    are keyed by (config, operands, dataflow) alone, so with a cache the
    run is often a hit: a baseline's is the trial Flexagon's oracle ran over
    the same operands, and Flexagon's own is its winning trial.
    """
    allowed = DESIGN_DATAFLOWS[design]
    if dataflow is None:
        if design == "Flexagon":
            dataflow = OracleMapper(config, runner).select(a, b)
        else:
            dataflow = allowed[0]
    elif dataflow not in allowed:
        raise ValueError(
            f"{design} does not support the {dataflow.informal_name} dataflow"
        )
    record = runner.run_one(
        SimJob(design=ENGINE_DESIGN, config=config, a=a, b=b, dataflow=dataflow)
    )
    return replace(record, accelerator=design, layer_name=layer_name)


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
    def to_record(self, place: Callable[[CompressedMatrix], int]) -> dict[str, object]:
        """JSON-safe dict form: what a claimed chunk carries to a worker.

        An explicit operand is written as ``place(operand)``, its index in
        the chunk's operand table (:func:`repro.fabric.wire.encode_jobs`).
        """
        return {
            "design": self.design,
            "config": self.config.to_record(),
            "spec": None if self.spec is None else _spec_record(self.spec),
            "scale": self.scale,
            "seed": self.seed,
            "dataflow": None if self.dataflow is None else self.dataflow.name,
            "layer_name": self.layer_name,
            "a": None if self.a is None else place(self.a),
            "b": None if self.b is None else place(self.b),
        }

    @classmethod
    def from_record(cls, record: dict, operands: list[CompressedMatrix]) -> "SimJob":
        """Inverse of :meth:`to_record`: an explicit operand is the one at
        its index in ``operands``, the chunk's decoded operand table."""
        spec, dataflow, a, b = (record[name] for name in ("spec", "dataflow", "a", "b"))
        for index in (a, b):
            if index is not None and (type(index) is not int or not 0 <= index < len(operands)):
                raise ValueError(f"no operand {index!r} in the chunk's operand table")
        return cls(
            design=record["design"],
            config=AcceleratorConfig.from_record(record["config"]),
            spec=None if spec is None else _spec_from_record(spec),
            scale=record["scale"],
            seed=record["seed"],
            dataflow=None if dataflow is None else Dataflow[dataflow],
            layer_name=record["layer_name"],
            a=None if a is None else operands[a],
            b=None if b is None else operands[b],
        )

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


def execute_job(job: SimJob, *, trial_cache: ResultCache | str | os.PathLike | None):
    """Run one job to completion and return its result record.

    This is a module-level function (not a method) so that
    :class:`concurrent.futures.ProcessPoolExecutor` can pickle it by
    reference and ship only the job data to the worker.  A design job's
    nested engine runs go through ``trial_cache``: a live
    :class:`~repro.runtime.cache.ResultCache`, a cache directory, or
    ``None`` for no cache (see :func:`_nested_runner`).
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
    return run_design(
        job.design,
        job.config,
        a,
        b,
        runner=_nested_runner(trial_cache),
        dataflow=job.dataflow,
        layer_name=job.layer_name,
    )


def execute_chunk(
    jobs: list[SimJob], *, trial_cache: ResultCache | str | os.PathLike | None
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
# Record helpers
# ----------------------------------------------------------------------
def _spec_record(spec: LayerSpec) -> dict[str, object]:
    record = {name: getattr(spec, name) for name in spec.__dataclass_fields__}
    record["pattern_a"], record["pattern_b"] = spec.pattern_a.value, spec.pattern_b.value
    return record


def _spec_from_record(record: dict) -> LayerSpec:
    fields = dict(record)
    for name in ("pattern_a", "pattern_b"):
        fields[name] = SparsityPattern(fields[name])
    return LayerSpec(**fields)


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
    return json.dumps(config.to_record(), sort_keys=True)


def _json_default(value: object) -> object:
    """JSON encoder fallback for the enum members inside specs/configs."""
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")
