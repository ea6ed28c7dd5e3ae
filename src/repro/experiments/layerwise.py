"""Layer-wise experiments over the nine Table 6 layers (Figs. 13, 14, 15, 16).

The layer-wise grid simulates every representative layer on the four
accelerator designs; the per-figure ``*_rows`` helpers then slice the same
results into the rows each figure plots.  The (layer, design)
grid is submitted through :class:`repro.runtime.BatchRunner`, so the sweep
runs in parallel and repeat runs are answered from the runtime's persistent
cache.

This module owns the *sweep definition* (:func:`layerwise_jobs`), the
*collation* of grid results into :class:`LayerwiseResults`
(:func:`collate_layerwise`) and the per-figure row makers.  Execution goes
through :meth:`repro.api.Session.layerwise`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.experiments.settings import ExperimentSettings
from repro.metrics.results import (
    RESULT_SCHEMA_VERSION,
    LayerSimResult,
    Row,
    canonical_order,
    check_record_schema,
)
from repro.runtime import DESIGN_ORDER, SimJob
from repro.workloads.representative import REPRESENTATIVE_LAYERS, representative_layer_names


@dataclass
class LayerwiseResults:
    """Simulation results for every (layer, design) pair."""

    settings: ExperimentSettings
    #: ``results[layer_name][design_name]`` -> :class:`LayerSimResult`.
    results: dict[str, dict[str, LayerSimResult]]
    #: Scale factor applied to each layer.
    scales: dict[str, float]

    def layer_names(self) -> list[str]:
        """Layers in Table 6 order."""
        return list(self.results)

    def result(self, layer: str, design: str) -> LayerSimResult:
        """The result record of one (layer, design) pair."""
        return self.results[layer][design]

    # ------------------------------------------------------------------
    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form (versioned; see :mod:`repro.metrics.results`)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "layerwise",
            "settings": self.settings.to_record(),
            "results": {
                layer: {
                    design: record.to_record() for design, record in per_design.items()
                }
                for layer, per_design in self.results.items()
            },
            "scales": {k: float(v) for k, v in self.scales.items()},
        }

    @classmethod
    def from_record(cls, record: dict) -> "LayerwiseResults":
        """Inverse of :meth:`to_record`.

        JSON serialisation sorts mapping keys, so the Table 6 layer order and
        the plot-order design columns are restored here rather than trusted
        from the payload.
        """
        check_record_schema(record, "layerwise")
        layer_order = canonical_order(record["results"], representative_layer_names())
        return cls(
            settings=ExperimentSettings.from_record(record["settings"]),
            results={
                layer: {
                    design: LayerSimResult.from_record(
                        record["results"][layer][design]
                    )
                    for design in canonical_order(
                        record["results"][layer], DESIGN_ORDER
                    )
                }
                for layer in layer_order
            },
            scales={name: record["scales"][name] for name in layer_order},
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize to a JSON string that :meth:`from_json` reverses."""
        return json.dumps(self.to_record(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "LayerwiseResults":
        """Inverse of :meth:`to_json`."""
        return cls.from_record(json.loads(payload))


def layerwise_jobs(
    settings: ExperimentSettings,
) -> tuple[list[SimJob], dict[str, float]]:
    """The flat (layer, design) job grid of the layer-wise sweep.

    Returns the jobs plus the per-layer scale factors that
    :func:`collate_layerwise` needs to assemble the grid's results.
    """
    scales = {spec.name: settings.layer_scale(spec) for spec in REPRESENTATIVE_LAYERS}
    jobs = [
        SimJob(
            design=design,
            config=settings.scaled_config(scales[spec.name]),
            spec=spec,
            scale=scales[spec.name],
            seed=spec.deterministic_seed(settings.seed_salt),
            layer_name=spec.name,
        )
        for spec in REPRESENTATIVE_LAYERS
        for design in DESIGN_ORDER
    ]
    return jobs, scales


def collate_layerwise(
    settings: ExperimentSettings,
    scales: dict[str, float],
    results: list,
) -> LayerwiseResults:
    """Assemble the grid results of :func:`layerwise_jobs` (same order)."""
    grid_results = iter(results)
    collated: dict[str, dict[str, LayerSimResult]] = {}
    for spec in REPRESENTATIVE_LAYERS:
        collated[spec.name] = {design: next(grid_results) for design in DESIGN_ORDER}
    return LayerwiseResults(settings=settings, results=collated, scales=scales)


# ----------------------------------------------------------------------
# Figure 13: layer-wise speed-up, split into multiplying and merging phases
# ----------------------------------------------------------------------
def layerwise_speedup_rows(results: LayerwiseResults) -> list[Row]:
    """Rows of Fig. 13: per layer and design, speed-up vs the SIGMA-like design."""
    rows = []
    for layer in results.layer_names():
        baseline = results.result(layer, "SIGMA-like").total_cycles
        for design in DESIGN_ORDER:
            record = results.result(layer, design)
            total = record.total_cycles
            rows.append(
                {
                    "layer": layer,
                    "design": design,
                    "dataflow": record.dataflow.name,
                    "cycles": total,
                    "speedup_vs_sigma": baseline / total if total else 0.0,
                    "mult_fraction": (
                        (record.cycles.stationary + record.cycles.streaming) / total
                        if total
                        else 0.0
                    ),
                    "merge_fraction": record.cycles.merging / total if total else 0.0,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 14: on-chip memory traffic breakdown
# ----------------------------------------------------------------------
def onchip_traffic_rows(results: LayerwiseResults) -> list[Row]:
    """Rows of Fig. 14: STA / STR / psum on-chip traffic per layer and design (MB)."""
    rows = []
    for layer in results.layer_names():
        for design in DESIGN_ORDER:
            record = results.result(layer, design)
            rows.append(
                {
                    "layer": layer,
                    "design": design,
                    "sta_mb": record.traffic.sta_bytes / 1e6,
                    "str_mb": record.traffic.str_bytes / 1e6,
                    "psum_mb": record.traffic.psum_bytes / 1e6,
                    "total_mb": record.traffic.onchip_bytes / 1e6,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 15: streaming-cache miss rate
# ----------------------------------------------------------------------
def miss_rate_rows(results: LayerwiseResults) -> list[Row]:
    """Rows of Fig. 15: STR cache miss rate (%) per layer and design."""
    rows = []
    for layer in results.layer_names():
        for design in DESIGN_ORDER:
            record = results.result(layer, design)
            rows.append(
                {
                    "layer": layer,
                    "design": design,
                    "miss_rate_pct": 100.0 * record.str_cache_miss_rate,
                    "accesses": record.str_cache_accesses,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 16: off-chip traffic
# ----------------------------------------------------------------------
def offchip_traffic_rows(results: LayerwiseResults) -> list[Row]:
    """Rows of Fig. 16: off-chip (STR cache <-> DRAM) traffic per layer and design (KB)."""
    rows = []
    for layer in results.layer_names():
        for design in DESIGN_ORDER:
            record = results.result(layer, design)
            str_read = record.dram.str_read_bytes if record.dram else 0
            rows.append(
                {
                    "layer": layer,
                    "design": design,
                    "offchip_kb": str_read / 1e3,
                    "total_dram_kb": record.traffic.offchip_bytes / 1e3,
                }
            )
    return rows


def expected_layer_names() -> list[str]:
    """The Table 6 layer names (re-exported for the benchmark assertions)."""
    return representative_layer_names()
