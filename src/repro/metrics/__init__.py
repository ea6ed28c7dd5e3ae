"""Result records and report formatting for simulations and benchmarks."""

from repro.metrics.results import (
    RESULT_SCHEMA_VERSION,
    LayerSimResult,
    ModelSimResult,
    PhaseCycles,
    Row,
    RowValue,
    TrafficBreakdown,
    check_record_schema,
    geometric_mean,
    speedup,
)
from repro.metrics.reporting import format_table

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "LayerSimResult",
    "ModelSimResult",
    "PhaseCycles",
    "Row",
    "RowValue",
    "TrafficBreakdown",
    "check_record_schema",
    "geometric_mean",
    "speedup",
    "format_table",
]
