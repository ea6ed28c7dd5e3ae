"""Simulation result records.

These dataclasses are the contract between the accelerator models and the
benchmark harness: every quantity the paper's figures plot (cycles split into
multiplying/merging phases, on-chip traffic per memory structure, streaming
cache miss rate, off-chip traffic, speed-ups, performance/area) is a field or
derived property here.

Every record is **JSON-round-trippable**: ``to_record()`` produces a plain
dict of JSON-safe values (versioned by :data:`RESULT_SCHEMA_VERSION`) and
``from_record()`` reconstructs an equal record, so results can cross
process and service boundaries — the contract the :mod:`repro.api` response
objects are built on.  A record carries counts, never the product matrix C;
the tests compute C with the functional dataflows and the reference SpGEMM
in ``tests/oracles/``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

from repro.arch.memory.dram import DramTrafficCounter
from repro.dataflows.base import Dataflow
from repro.dataflows.stats import DataflowStats

#: Version of the serialized record layout.  Bump whenever ``to_record`` /
#: ``from_record`` change shape so stale payloads are rejected loudly instead
#: of deserialising into nonsense.
RESULT_SCHEMA_VERSION = 1

#: The value types a report row may carry: every row dict produced by the
#: experiment harness and the :mod:`repro.api` response records is JSON-safe.
RowValue = Union[str, int, float, bool, None]

#: One row of a reproduced figure or table (column name -> JSON-safe value).
Row = dict[str, RowValue]


def canonical_order(present: dict, canonical) -> list[str]:
    """Keys of ``present`` in canonical order, unknown keys last (stable).

    JSON serialisation sorts mapping keys, so deserializers use this to
    restore the orderings the figures rely on (models in Table 2 order,
    layers in Table 6 order, designs in plot order).
    """
    known = [key for key in canonical if key in present]
    return known + [key for key in present if key not in set(known)]


def check_record_schema(record: dict, expected_kind: str | None = None) -> None:
    """Validate the schema stamp of a serialized record before decoding it."""
    version = record.get("schema")
    if version != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported record schema {version!r}; "
            f"this build reads version {RESULT_SCHEMA_VERSION}"
        )
    if expected_kind is not None and record.get("kind") != expected_kind:
        raise ValueError(
            f"expected a {expected_kind!r} record, got {record.get('kind')!r}"
        )


@dataclass
class PhaseCycles:
    """Cycle counts per execution phase (Fig. 3b phases 2-4)."""

    #: Cycles spent loading stationary data into the multipliers.
    stationary: float = 0.0
    #: Cycles of the streaming (multiplying) phase — the blue bars of Fig. 13.
    streaming: float = 0.0
    #: Cycles of the merging phase — the orange bars of Fig. 13.
    merging: float = 0.0

    @property
    def total(self) -> float:
        """Total execution cycles of the layer."""
        return self.stationary + self.streaming + self.merging

    def to_record(self) -> dict[str, float]:
        """JSON-safe dict form."""
        return {
            "stationary": float(self.stationary),
            "streaming": float(self.streaming),
            "merging": float(self.merging),
        }

    @classmethod
    def from_record(cls, record: dict) -> "PhaseCycles":
        """Inverse of :meth:`to_record`."""
        return cls(**record)


@dataclass
class TrafficBreakdown:
    """On-chip and off-chip traffic in bytes (Figs. 14 and 16)."""

    #: Bytes read from the stationary FIFO into the datapath.
    sta_bytes: int = 0
    #: Bytes read from the streaming cache into the datapath.
    str_bytes: int = 0
    #: Bytes moved to/from the PSRAM (partial-sum writes + reads).
    psum_bytes: int = 0
    #: Off-chip bytes (DRAM reads + writes), the quantity of Fig. 16.
    offchip_bytes: int = 0

    @property
    def onchip_bytes(self) -> int:
        """Total on-chip memory traffic (the quantity of Fig. 14)."""
        return self.sta_bytes + self.str_bytes + self.psum_bytes

    def to_record(self) -> dict[str, int]:
        """JSON-safe dict form (numpy integers normalised to plain ints)."""
        return {name: int(value) for name, value in asdict(self).items()}

    @classmethod
    def from_record(cls, record: dict) -> "TrafficBreakdown":
        """Inverse of :meth:`to_record`."""
        return cls(**record)


@dataclass(frozen=True)
class LayerSimResult:
    """Outcome of simulating one SpMSpM layer on one accelerator.

    The record is **immutable by contract**: the dataclass is frozen and
    every post-construction adjustment (the engine relabelling a mirrored
    run, a design relabelling a shared engine record) goes through
    :func:`dataclasses.replace` with freshly built components.  That
    is what lets the batch runner hand the *same* record object to every
    duplicate slot of a batch — and to every consumer of a cached entry —
    without defensive deep copies.  The nested ``cycles``/``traffic``/
    ``stats`` components remain plain mutable accumulators while the engine
    is still building them, but must never be written once wrapped here.
    """

    #: Name of the accelerator design that produced the result.
    accelerator: str
    #: Dataflow the layer was executed with.
    dataflow: Dataflow
    #: Cycle counts per phase.
    cycles: PhaseCycles = field(default_factory=PhaseCycles)
    #: Traffic breakdown.
    traffic: TrafficBreakdown = field(default_factory=TrafficBreakdown)
    #: Miss rate of the streaming cache during the layer.
    str_cache_miss_rate: float = 0.0
    #: Accesses observed by the streaming cache.
    str_cache_accesses: int = 0
    #: Operation counts accumulated by the datapath.
    stats: DataflowStats = field(default_factory=DataflowStats)
    #: Optional label of the layer that was simulated.
    layer_name: str = ""
    #: Full off-chip traffic breakdown (``None`` for records produced by
    #: models without a DRAM interface, e.g. deserialized legacy payloads).
    dram: Optional[DramTrafficCounter] = None

    @property
    def total_cycles(self) -> float:
        """Total execution cycles."""
        return self.cycles.total

    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "layer_result",
            "accelerator": self.accelerator,
            "dataflow": self.dataflow.name,
            "cycles": self.cycles.to_record(),
            "traffic": self.traffic.to_record(),
            "str_cache_miss_rate": float(self.str_cache_miss_rate),
            "str_cache_accesses": int(self.str_cache_accesses),
            "stats": {name: int(value) for name, value in asdict(self.stats).items()},
            "layer_name": self.layer_name,
            "dram": (
                None
                if self.dram is None
                else {name: int(value) for name, value in asdict(self.dram).items()}
            ),
        }

    @classmethod
    def from_record(cls, record: dict) -> "LayerSimResult":
        """Inverse of :meth:`to_record`."""
        check_record_schema(record, "layer_result")
        return cls(
            accelerator=record["accelerator"],
            dataflow=Dataflow[record["dataflow"]],
            cycles=PhaseCycles.from_record(record["cycles"]),
            traffic=TrafficBreakdown.from_record(record["traffic"]),
            str_cache_miss_rate=record["str_cache_miss_rate"],
            str_cache_accesses=record["str_cache_accesses"],
            stats=DataflowStats(**record["stats"]),
            layer_name=record["layer_name"],
            dram=(
                None
                if record["dram"] is None
                else DramTrafficCounter(**record["dram"])
            ),
        )


@dataclass
class ModelSimResult:
    """Outcome of executing a whole DNN model (a chain of layers)."""

    accelerator: str
    model_name: str
    layer_results: list[LayerSimResult] = field(default_factory=list)
    #: Explicit format conversions inserted between layers.  Always 0: the
    #: mapper plans format variants globally (Section 3.3), so chains never
    #: need one.  Kept because every record and response body carries it.
    explicit_conversions: int = 0
    #: Extra off-chip bytes those conversions moved (always 0, as above).
    conversion_bytes: int = 0

    @property
    def total_cycles(self) -> float:
        """Sum of layer cycles plus any conversion overhead already folded in."""
        return sum(layer.total_cycles for layer in self.layer_results)

    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "model_result",
            "accelerator": self.accelerator,
            "model_name": self.model_name,
            "layer_results": [layer.to_record() for layer in self.layer_results],
            "explicit_conversions": int(self.explicit_conversions),
            "conversion_bytes": int(self.conversion_bytes),
        }

    @classmethod
    def from_record(cls, record: dict) -> "ModelSimResult":
        """Inverse of :meth:`to_record`."""
        check_record_schema(record, "model_result")
        return cls(
            accelerator=record["accelerator"],
            model_name=record["model_name"],
            layer_results=[
                LayerSimResult.from_record(layer) for layer in record["layer_results"]
            ],
            explicit_conversions=record["explicit_conversions"],
            conversion_bytes=record["conversion_bytes"],
        )


def speedup(baseline_cycles: float, cycles: float) -> float:
    """Speed-up of ``cycles`` relative to ``baseline_cycles`` (>1 means faster)."""
    if cycles <= 0:
        raise ValueError("cycle counts must be positive to compute a speed-up")
    return baseline_cycles / cycles


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the aggregation the paper uses for speed-ups)."""
    if not values:
        raise ValueError("cannot take the geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
