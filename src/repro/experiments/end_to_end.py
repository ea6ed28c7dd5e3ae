"""End-to-end experiments over the eight DNN models (Figs. 1, 12, 18 and Table 2).

The end-to-end grid executes (a sampled, scaled version of) every model on
the CPU baseline and the four accelerator designs; the per-figure ``*_rows``
helpers then turn the shared results into the rows each figure or table
reports.

The sweep is expressed as a flat (model, design, layer) job grid submitted
through :class:`repro.runtime.BatchRunner`: layers of a chain are independent
here (the mapper plans format variants globally, Section 3.3, so no
conversion state flows between layers), which makes the grid embarrassingly
parallel and lets the runtime answer repeat runs from its persistent cache.

This module owns the *sweep definition* (:func:`end_to_end_jobs`), the
*collation* of grid results into :class:`EndToEndResults`
(:func:`collate_end_to_end`) and the per-figure row makers.  Execution goes
through :meth:`repro.api.Session.end_to_end`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.accelerators import accelerator_area_power
from repro.arch.config import AcceleratorConfig
from repro.experiments.settings import ExperimentSettings
from repro.metrics.results import (
    RESULT_SCHEMA_VERSION,
    ModelSimResult,
    Row,
    canonical_order,
    check_record_schema,
    geometric_mean,
)
from repro.runtime import CPU_DESIGN, DESIGN_ORDER, SimJob
from repro.workloads.layers import LayerSpec
from repro.workloads.models import MODEL_REGISTRY, ModelSpec


@dataclass
class EndToEndResults:
    """End-to-end results for every model and design (plus the CPU baseline)."""

    settings: ExperimentSettings
    #: ``accelerator_results[model_short_name][design]`` -> :class:`ModelSimResult`.
    accelerator_results: dict[str, dict[str, ModelSimResult]]
    #: CPU cycles per model (model short name -> cycles of the sampled chain).
    cpu_cycles: dict[str, float]
    #: CPU seconds per model.
    cpu_seconds: dict[str, float]
    #: Number of layers actually simulated per model (after sampling).
    sampled_layers: dict[str, int]
    #: Extrapolation factor (total layers / sampled layers) per model.
    extrapolation: dict[str, float]
    #: The (scaled) accelerator configuration used for each model.
    configs: dict[str, AcceleratorConfig] = field(default_factory=dict)

    def model_names(self) -> list[str]:
        """Model short names in Table 2 order."""
        return list(self.accelerator_results)

    # ------------------------------------------------------------------
    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form (versioned; see :mod:`repro.metrics.results`)."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "end_to_end",
            "settings": self.settings.to_record(),
            "accelerator_results": {
                model: {
                    design: record.to_record() for design, record in per_design.items()
                }
                for model, per_design in self.accelerator_results.items()
            },
            "cpu_cycles": {k: float(v) for k, v in self.cpu_cycles.items()},
            "cpu_seconds": {k: float(v) for k, v in self.cpu_seconds.items()},
            "sampled_layers": {k: int(v) for k, v in self.sampled_layers.items()},
            "extrapolation": {k: float(v) for k, v in self.extrapolation.items()},
            "configs": {k: config.to_record() for k, config in self.configs.items()},
        }

    @classmethod
    def from_record(cls, record: dict) -> "EndToEndResults":
        """Inverse of :meth:`to_record`.

        JSON serialisation sorts mapping keys, so the canonical orderings
        the figures rely on (models in Table 2 order, designs in plot order)
        are restored here rather than trusted from the payload.
        """
        check_record_schema(record, "end_to_end")
        models = canonical_order(record["accelerator_results"], MODEL_REGISTRY)
        return cls(
            settings=ExperimentSettings.from_record(record["settings"]),
            accelerator_results={
                model: {
                    design: ModelSimResult.from_record(
                        record["accelerator_results"][model][design]
                    )
                    for design in canonical_order(
                        record["accelerator_results"][model], DESIGN_ORDER
                    )
                }
                for model in models
            },
            cpu_cycles={m: record["cpu_cycles"][m] for m in models},
            cpu_seconds={m: record["cpu_seconds"][m] for m in models},
            sampled_layers={m: record["sampled_layers"][m] for m in models},
            extrapolation={m: record["extrapolation"][m] for m in models},
            configs={
                m: AcceleratorConfig.from_record(record["configs"][m])
                for m in canonical_order(record["configs"], MODEL_REGISTRY)
            },
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize to a JSON string that :meth:`from_json` reverses."""
        return json.dumps(self.to_record(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "EndToEndResults":
        """Inverse of :meth:`to_json`."""
        return cls.from_record(json.loads(payload))

    def accelerator_seconds(self, model: str, design: str) -> float:
        """Wall-clock seconds of one design on one model (sampled chain)."""
        cycles = self.accelerator_results[model][design].total_cycles
        return self.settings.config.cycles_to_seconds(cycles)

    def accelerator_seconds_full_size(self, model: str, design: str) -> float:
        """Estimated seconds of the *full-size* (Table 5) datapath on the same work.

        Scaled runs use a datapath shrunk by ``scaled_multipliers / 64``; the
        accelerator's cycle count is throughput-bound, so the full-size design
        would finish the same (scaled) workload roughly that factor faster.
        The CPU baseline is never scaled, so Fig. 12's CPU-relative speed-ups
        use this estimate.
        """
        seconds = self.accelerator_seconds(model, design)
        config = self.configs.get(model, self.settings.config)
        datapath_fraction = config.num_multipliers / self.settings.config.num_multipliers
        return seconds * datapath_fraction


def _sample_layers(model: ModelSpec, max_layers: int) -> list[LayerSpec]:
    """Evenly sample up to ``max_layers`` layers of a model, keeping order."""
    layers = list(model.layers)
    if len(layers) <= max_layers:
        return layers
    step = len(layers) / max_layers
    return [layers[int(i * step)] for i in range(max_layers)]


def sample_model_chain(
    model: ModelSpec,
    settings: ExperimentSettings,
    max_layers: int | None = None,
) -> tuple[list[LayerSpec], float, AcceleratorConfig]:
    """The sampled layer chain of one model plus its common scale and config.

    This is the per-model policy both the end-to-end grid and
    :meth:`repro.api.SweepSpec.compile` share — one common scale per model
    (the tightest layer budget) keeps successive layers chainable, and the
    configuration is scaled to match.  Keeping a single implementation is
    what guarantees a model sweep builds byte-identical
    :class:`~repro.runtime.SimJob` keys to the figure grids, so the two
    reuse each other's cache entries.
    """
    cap = max_layers if max_layers is not None else settings.max_layers_per_model
    sampled = _sample_layers(model, cap)
    scale = min(settings.layer_scale(spec) for spec in sampled)
    return sampled, scale, settings.scaled_config(scale)


def end_to_end_jobs(
    settings: ExperimentSettings,
) -> tuple[list[SimJob], dict[str, AcceleratorConfig], dict[str, list[LayerSpec]]]:
    """The flat (model, design, layer) job grid of the end-to-end sweep.

    Returns the jobs plus the per-model scaled configuration and sampled
    layer specs that :func:`collate_end_to_end` needs to assemble the grid's
    results.
    """
    jobs: list[SimJob] = []
    configs: dict[str, AcceleratorConfig] = {}
    sampled_specs: dict[str, list[LayerSpec]] = {}
    for short_name, model in MODEL_REGISTRY.items():
        sampled, scale, config = sample_model_chain(model, settings)
        sampled_specs[short_name] = sampled
        configs[short_name] = config
        for spec in sampled:
            seed = spec.deterministic_seed(settings.seed_salt)
            # Weights are stored offline in both formats and the mapper plans
            # the M/N variants globally, so chains never need conversions
            # (Section 3.3); each layer is therefore an independent job.
            for design in DESIGN_ORDER + (CPU_DESIGN,):
                jobs.append(
                    SimJob(
                        design=design,
                        config=config,
                        spec=spec,
                        scale=scale,
                        seed=seed,
                        layer_name=spec.name,
                    )
                )
    return jobs, configs, sampled_specs


def collate_end_to_end(
    settings: ExperimentSettings,
    configs: dict[str, AcceleratorConfig],
    sampled_specs: dict[str, list[LayerSpec]],
    results: list,
) -> EndToEndResults:
    """Assemble the grid results of :func:`end_to_end_jobs` (same order)."""
    grid_results = iter(results)

    accelerator_results: dict[str, dict[str, ModelSimResult]] = {}
    cpu_cycles: dict[str, float] = {}
    cpu_seconds: dict[str, float] = {}
    sampled_counts: dict[str, int] = {}
    extrapolation: dict[str, float] = {}
    for short_name, model in MODEL_REGISTRY.items():
        sampled = sampled_specs[short_name]
        sampled_counts[short_name] = len(sampled)
        extrapolation[short_name] = model.num_layers / len(sampled)
        per_design = {
            design: ModelSimResult(accelerator=design, model_name=model.name)
            for design in DESIGN_ORDER
        }
        model_cpu_cycles = 0.0
        model_cpu_seconds = 0.0
        for _spec in sampled:
            for design in DESIGN_ORDER:
                per_design[design].layer_results.append(next(grid_results))
            cpu_layer = next(grid_results)
            model_cpu_cycles += cpu_layer.cycles
            model_cpu_seconds += cpu_layer.seconds
        accelerator_results[short_name] = per_design
        cpu_cycles[short_name] = model_cpu_cycles
        cpu_seconds[short_name] = model_cpu_seconds

    return EndToEndResults(
        settings=settings,
        accelerator_results=accelerator_results,
        cpu_cycles=cpu_cycles,
        cpu_seconds=cpu_seconds,
        sampled_layers=sampled_counts,
        extrapolation=extrapolation,
        configs=configs,
    )


# ----------------------------------------------------------------------
# Figure 12: end-to-end speed-up over the CPU baseline
# ----------------------------------------------------------------------
def end_to_end_speedup_rows(results: EndToEndResults) -> list[Row]:
    """Rows of Fig. 12: per model, each design's speed-up over CPU MKL (in time)."""
    rows = []
    for model in results.model_names():
        cpu_time = results.cpu_seconds[model]
        row: Row = {"model": model, "CPU-MKL": 1.0}
        for design in DESIGN_ORDER:
            accel_time = results.accelerator_seconds_full_size(model, design)
            row[design] = cpu_time / accel_time if accel_time else float("inf")
        rows.append(row)
    geo: Row = {"model": "GEOMEAN", "CPU-MKL": 1.0}
    for design in DESIGN_ORDER:
        geo[design] = geometric_mean([float(row[design]) for row in rows])
    rows.append(geo)
    return rows


# ----------------------------------------------------------------------
# Figure 18: performance / area
# ----------------------------------------------------------------------
def performance_per_area_rows(results: EndToEndResults) -> list[Row]:
    """Rows of Fig. 18: speed-up over SIGMA-like divided by normalised area."""
    areas = {design: accelerator_area_power(design, results.settings.config).total_area
             for design in DESIGN_ORDER}
    sigma_area = areas["SIGMA-like"]
    rows = []
    for model in results.model_names():
        sigma_cycles = results.accelerator_results[model]["SIGMA-like"].total_cycles
        row: Row = {"model": model}
        for design in DESIGN_ORDER:
            cycles = results.accelerator_results[model][design].total_cycles
            speedup = sigma_cycles / cycles if cycles else float("inf")
            normalised_area = areas[design] / sigma_area
            row[design] = speedup / normalised_area
        rows.append(row)
    geo: Row = {"model": "GEOMEAN"}
    for design in DESIGN_ORDER:
        geo[design] = geometric_mean([float(row[design]) for row in rows])
    rows.append(geo)
    return rows


# ----------------------------------------------------------------------
# Figure 1: best dataflow per layer
# ----------------------------------------------------------------------
def best_dataflow_per_layer_rows(results: EndToEndResults) -> list[Row]:
    """Rows of Fig. 1: for every simulated layer, which dataflow family wins.

    The winner is determined exactly as in the paper: by comparing the cycles
    of the three fixed-dataflow designs on that layer.
    """
    rows = []
    for model in results.model_names():
        per_design = results.accelerator_results[model]
        num_layers = len(per_design["SIGMA-like"].layer_results)
        for index in range(num_layers):
            cycles = {
                "IP": per_design["SIGMA-like"].layer_results[index].total_cycles,
                "OP": per_design["SpArch-like"].layer_results[index].total_cycles,
                "Gust": per_design["GAMMA-like"].layer_results[index].total_cycles,
            }
            winner = min(cycles, key=cycles.get)
            rows.append(
                {
                    "model": model,
                    "layer": per_design["SIGMA-like"].layer_results[index].layer_name,
                    "best": winner,
                    "ip_cycles": cycles["IP"],
                    "op_cycles": cycles["OP"],
                    "gust_cycles": cycles["Gust"],
                    "flexagon_choice": per_design["Flexagon"]
                    .layer_results[index]
                    .dataflow.dataflow_class.value,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table 2: model statistics
# ----------------------------------------------------------------------
def model_statistics_rows(results: EndToEndResults) -> list[Row]:
    """Rows of Table 2: per model, layer counts, sparsities, sizes and CPU cycles."""
    rows = []
    for short_name, model in MODEL_REGISTRY.items():
        cs_a = [spec.expected_compressed_bytes_a() / 2**20 for spec in model.layers]
        cs_b = [spec.expected_compressed_bytes_b() / 2**20 for spec in model.layers]
        rows.append(
            {
                "model": f"{model.name} ({short_name})",
                "domain": model.domain,
                "layers": model.num_layers,
                "AvSpA(%)": round(100 * model.table2_activation_sparsity, 2),
                "AvSpB(%)": round(100 * model.table2_weight_sparsity, 2),
                "AvCsA(MiB)": sum(cs_a) / len(cs_a),
                "AvCsB(MiB)": sum(cs_b) / len(cs_b),
                "MaxCsA(MiB)": max(cs_a),
                "MaxCsB(MiB)": max(cs_b),
                "paper CPU cycles (1e6)": model.table2_cpu_megacycles,
                "model CPU cycles (1e6, sampled+scaled)": results.cpu_cycles[short_name] / 1e6,
            }
        )
    return rows
