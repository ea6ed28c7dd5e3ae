"""Experiment harness: the code paths behind every table and figure.

Each experiment module defines its sweep as a job grid (``*_jobs``), collates
the grid's results (``collate_*``) and slices them into the plain row
dictionaries each figure or table reports (``*_rows``, ready for
:func:`repro.metrics.format_table`).  The grids run through
:class:`repro.api.Session`, which memoizes them per session; the benchmark
scripts under ``benchmarks/`` and the examples ask a session for their rows.
"""

from repro.experiments.settings import ExperimentSettings, default_settings
from repro.experiments.layerwise import (
    LayerwiseResults,
    collate_layerwise,
    layerwise_jobs,
    layerwise_speedup_rows,
    onchip_traffic_rows,
    miss_rate_rows,
    offchip_traffic_rows,
)
from repro.experiments.end_to_end import (
    EndToEndResults,
    collate_end_to_end,
    end_to_end_jobs,
    end_to_end_speedup_rows,
    performance_per_area_rows,
    best_dataflow_per_layer_rows,
    model_statistics_rows,
)
from repro.experiments.area import area_power_rows, naive_comparison_rows

__all__ = [
    "ExperimentSettings",
    "default_settings",
    "LayerwiseResults",
    "collate_layerwise",
    "layerwise_jobs",
    "layerwise_speedup_rows",
    "onchip_traffic_rows",
    "miss_rate_rows",
    "offchip_traffic_rows",
    "EndToEndResults",
    "collate_end_to_end",
    "end_to_end_jobs",
    "end_to_end_speedup_rows",
    "performance_per_area_rows",
    "best_dataflow_per_layer_rows",
    "model_statistics_rows",
    "area_power_rows",
    "naive_comparison_rows",
]
