"""Shared experiment settings: scaling policy and accelerator configuration.

The paper's full-size layers (hundreds of millions of effectual
multiplications) take minutes, not the seconds of a benchmark run: the
unscaled fig12 over all 513 layers (2,565 jobs) took about 100 s on 2
workers of a 2-vCPU host, at 505-565 MB in its largest process.  So the
harness *scales* layers down by default: every dimension is multiplied by a
per-layer factor chosen so the dense MAC count stays under a budget, and
the on-chip SRAM capacities are scaled by the square of that
factor so the working-set-to-capacity ratios — which drive the paper's
cache-miss and traffic trends — are preserved.  Setting
``REPRO_FULL_SCALE=1`` in the environment (or ``max_dense_macs=None``)
disables scaling entirely.

Every experiment runs on the one SpMSpM engine
(:class:`~repro.accelerators.engine.SpmspmEngine`), so the settings carry no
engine choice.  Their record still writes the constant ``"engine":
"vectorized"``: response bodies, ETags and DSE report keys hash that record,
and dropping the key would change the wire format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import knobs
from repro.arch.config import AcceleratorConfig, coerce_numeric_fields, default_config
from repro.workloads.layers import LayerSpec, round_up_pow2, scale_for_budget


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment in the harness."""

    #: Reference accelerator configuration (Table 5).
    config: AcceleratorConfig = field(default_factory=default_config)
    #: Dense-MAC budget per layer used to pick the scale factor
    #: (``None`` disables scaling and runs the full-size layers).
    max_dense_macs: float | None = 4.0e6
    #: Cap on the number of layers simulated per model in the end-to-end
    #: experiments; layers are sampled evenly and the totals extrapolated.
    max_layers_per_model: int = 10
    #: Random-seed salt for synthetic matrix generation.
    seed_salt: int = 0

    def __post_init__(self) -> None:
        coerce_numeric_fields(self)

    # ------------------------------------------------------------------
    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form (used by the :mod:`repro.api` response records)."""
        return {
            "config": self.config.to_record(),
            "max_dense_macs": self.max_dense_macs,
            "max_layers_per_model": self.max_layers_per_model,
            "seed_salt": self.seed_salt,
            "engine": "vectorized",
        }

    @classmethod
    def from_record(cls, record: dict) -> "ExperimentSettings":
        """Inverse of :meth:`to_record` (any ``engine`` key is ignored)."""
        fields = dict(record)
        fields.pop("engine", None)
        config = AcceleratorConfig.from_record(fields.pop("config"))
        return cls(config=config, **fields)

    # ------------------------------------------------------------------
    def layer_scale(self, spec: LayerSpec) -> float:
        """The dimension scale factor used for ``spec``."""
        if self.max_dense_macs is None:
            return 1.0
        return scale_for_budget(spec, self.max_dense_macs)

    def scaled_config(self, scale: float) -> AcceleratorConfig:
        """Accelerator configuration matched to a layer scale factor.

        Compressed operand sizes shrink with the square of the linear scale,
        so the SRAM capacities are scaled by ``scale**2``; the datapath
        (multipliers and network bandwidths) is scaled by ``scale`` so that
        quantities such as "stationary iterations per layer" — the ratio of
        operand nnz to multiplier count that drives Inner Product's
        re-streaming cost — stay representative of the full-size runs.
        """
        if scale >= 1.0:
            return self.config
        base = self.config.scaled(scale * scale)
        multipliers = max(8, round_up_pow2(int(self.config.num_multipliers * scale)))
        bandwidth_scale = multipliers / self.config.num_multipliers
        dist_bw = max(2, int(round(self.config.distribution_bandwidth * bandwidth_scale)))
        red_bw = max(2, int(round(self.config.reduction_bandwidth * bandwidth_scale)))
        # DRAM bandwidth shrinks with the datapath so the compute-to-memory
        # balance of the full-size design is preserved, and the access time
        # grows by the same factor so the stall a cache miss exposes keeps the
        # same ratio to the (slower) per-element compute time.  Everything is
        # therefore expressed relative to the scaled datapath; absolute cycle
        # counts are not comparable across scales, ratios are.
        dram = replace(
            self.config.dram,
            bandwidth_bytes_per_s=self.config.dram.bandwidth_bytes_per_s * bandwidth_scale,
            access_time_ns=self.config.dram.access_time_ns / bandwidth_scale,
        )
        return default_config(
            num_multipliers=multipliers,
            distribution_bandwidth=dist_bw,
            reduction_bandwidth=red_bw,
            str_cache_bytes=base.str_cache_bytes,
            psram_bytes=base.psram_bytes,
            sta_fifo_bytes=self.config.sta_fifo_bytes,
            str_cache_line_bytes=self.config.str_cache_line_bytes,
            str_cache_associativity=self.config.str_cache_associativity,
            str_cache_banks=self.config.str_cache_banks,
            psram_block_bytes=self.config.psram_block_bytes,
            psram_banks=self.config.psram_banks,
            dram=dram,
            frequency_hz=self.config.frequency_hz,
            dram_outstanding_misses=self.config.dram_outstanding_misses,
        )


def default_settings(**overrides) -> ExperimentSettings:
    """Settings used by the benchmark harness.

    ``REPRO_FULL_SCALE=1`` switches to unscaled, full-size layers;
    ``REPRO_MAX_DENSE_MACS`` overrides the per-layer MAC budget;
    ``REPRO_MAX_LAYERS`` caps the sampled layers per model.
    """
    kwargs: dict = {}
    if knobs.get("REPRO_FULL_SCALE"):
        kwargs["max_dense_macs"] = None
    env_budget = knobs.get("REPRO_MAX_DENSE_MACS")
    if env_budget is not None:
        kwargs["max_dense_macs"] = env_budget
    env_layers = knobs.get("REPRO_MAX_LAYERS")
    if env_layers is not None:
        kwargs["max_layers_per_model"] = env_layers
    kwargs.update(overrides)
    return ExperimentSettings(**kwargs)
