"""Analytical area / power model (Table 8, Fig. 17 and Fig. 18).

The paper obtains post-layout area and power for the main building blocks of
the four accelerators (DN, MN, RN/merger/MRN, streaming cache, PSRAM) from
RTL synthesis at TSMC 28 nm / 800 MHz plus CACTI for the SRAMs.  This
reproduction cannot run those tools, and its policy for a measured component
it cannot run is a documented model: the per-component constants reported in
Table 8 for the 64-multiplier reference design are used as calibration points
and scaled structurally:

* network components scale with the number of multiplier switches / tree
  nodes they contain,
* SRAM components scale with their capacity in bytes.

Everything the paper derives from Table 8 — the Flexagon area/power overhead
percentages, the naive-design comparison of Fig. 17 and the performance/area
efficiency of Fig. 18 — is a ratio of these numbers, which the structural
scaling preserves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig, default_config

#: The reference design point the Table 8 constants were measured at.
_REFERENCE_MULTIPLIERS = 64
_REFERENCE_CACHE_BYTES = 1 * 1024**2
_REFERENCE_PSRAM_BYTES = 256 * 1024

#: Table 8 area constants in mm^2 for the 64-MS reference design.
_AREA_MM2 = {
    "dn": 0.04,
    "mn": 0.07,
    "rn_fan": 0.17,        # SIGMA-like reduction network (FAN)
    "rn_merger": 0.07,     # SpArch-like / GAMMA-like merger
    "rn_mrn": 0.21,        # Flexagon's unified MRN
    "cache": 3.93,         # 1 MiB streaming cache
    "psram": 1.03,         # 256 KiB PSRAM
}

#: Table 8 power constants in mW for the 64-MS reference design.
_POWER_MW = {
    "dn": 2.18,
    "mn": 3.29,
    "rn_fan": 248.0,
    "rn_merger": 64.48,
    "rn_mrn": 312.0,
    "cache": 2142.0,
    "psram": 538.0,        # 256 KiB PSRAM
}

#: PSRAM capacity each design provisions (Section 5.3: the GAMMA-like design
#: needs half the partial-sum storage; SIGMA-like needs none).
_PSRAM_FRACTION = {
    "SIGMA-like": 0.0,
    "SpArch-like": 1.0,
    "GAMMA-like": 0.5,
    "Flexagon": 1.0,
}

#: Reduction-network flavour per design.
_RN_KIND = {
    "SIGMA-like": "rn_fan",
    "SpArch-like": "rn_merger",
    "GAMMA-like": "rn_merger",
    "Flexagon": "rn_mrn",
}

#: Fig. 17: extra area of the naive (non-unified) design's 64x(1:3) demuxes,
#: 3x(64:1) muxes and associated wiring, as a fraction of the Flexagon total.
_NAIVE_MUX_DEMUX_FRACTION = 0.25


@dataclass(frozen=True)
class AreaPowerBreakdown:
    """Per-component area (mm^2) and power (mW) of one design."""

    design: str
    dn_area: float
    mn_area: float
    rn_area: float
    cache_area: float
    psram_area: float
    dn_power: float
    mn_power: float
    rn_power: float
    cache_power: float
    psram_power: float

    @property
    def total_area(self) -> float:
        """Total area in mm^2 (the Table 8 "Total" row)."""
        return (
            self.dn_area + self.mn_area + self.rn_area + self.cache_area + self.psram_area
        )

    @property
    def total_power(self) -> float:
        """Total power in mW."""
        return (
            self.dn_power
            + self.mn_power
            + self.rn_power
            + self.cache_power
            + self.psram_power
        )

    def as_row(self) -> dict[str, float | str]:
        """Row form used by the Table 8 bench."""
        return {
            "design": self.design,
            "DN (mm2)": self.dn_area,
            "MN (mm2)": self.mn_area,
            "RN (mm2)": self.rn_area,
            "Cache (mm2)": self.cache_area,
            "PSRAM (mm2)": self.psram_area,
            "Total (mm2)": self.total_area,
            "DN (mW)": self.dn_power,
            "MN (mW)": self.mn_power,
            "RN (mW)": self.rn_power,
            "Cache (mW)": self.cache_power,
            "PSRAM (mW)": self.psram_power,
            "Total (mW)": self.total_power,
        }


def accelerator_area_power(
    design: str, config: AcceleratorConfig | None = None
) -> AreaPowerBreakdown:
    """Area/power breakdown of one design at a given configuration.

    ``design`` must be one of ``"SIGMA-like"``, ``"SpArch-like"``,
    ``"GAMMA-like"`` or ``"Flexagon"``.
    """
    if design not in _RN_KIND:
        raise ValueError(
            f"unknown design {design!r}; expected one of {sorted(_RN_KIND)}"
        )
    config = config or default_config()
    network_scale = config.num_multipliers / _REFERENCE_MULTIPLIERS
    cache_scale = config.str_cache_bytes / _REFERENCE_CACHE_BYTES
    psram_scale = (
        config.psram_bytes / _REFERENCE_PSRAM_BYTES
    ) * _PSRAM_FRACTION[design]
    rn_kind = _RN_KIND[design]

    return AreaPowerBreakdown(
        design=design,
        dn_area=_AREA_MM2["dn"] * network_scale,
        mn_area=_AREA_MM2["mn"] * network_scale,
        rn_area=_AREA_MM2[rn_kind] * network_scale,
        cache_area=_AREA_MM2["cache"] * cache_scale,
        psram_area=_AREA_MM2["psram"] * psram_scale,
        dn_power=_POWER_MW["dn"] * network_scale,
        mn_power=_POWER_MW["mn"] * network_scale,
        rn_power=_POWER_MW[rn_kind] * network_scale,
        cache_power=_POWER_MW["cache"] * cache_scale,
        psram_power=_POWER_MW["psram"] * psram_scale,
    )


def naive_triple_network_area(
    config: AcceleratorConfig | None = None,
) -> dict[str, dict[str, float]]:
    """Fig. 17 comparison: unified Flexagon vs a naive triple-network design.

    The naive design keeps the same DN/MN and SRAMs, replicates the reduction
    network three times (FAN + two mergers) and needs 64 (1:3) demultiplexers
    plus 3 (64:1) multiplexers to stitch them together.  Returns, for each
    design, the area split into ``datapath``, ``sram`` and ``mux_demux``.
    """
    config = config or default_config()
    flexagon = accelerator_area_power("Flexagon", config)
    network_scale = config.num_multipliers / _REFERENCE_MULTIPLIERS

    flexagon_split = {
        "datapath": flexagon.dn_area + flexagon.mn_area + flexagon.rn_area,
        "sram": flexagon.cache_area + flexagon.psram_area,
        "mux_demux": 0.0,
    }
    naive_datapath = (
        flexagon.dn_area
        + flexagon.mn_area
        + (_AREA_MM2["rn_fan"] + 2 * _AREA_MM2["rn_merger"]) * network_scale
    )
    naive_split = {
        "datapath": naive_datapath,
        "sram": flexagon.cache_area + flexagon.psram_area,
        "mux_demux": _NAIVE_MUX_DEMUX_FRACTION * flexagon.total_area,
    }
    return {"Flexagon": flexagon_split, "Naive": naive_split}


def performance_per_area(cycles: float, area_mm2: float) -> float:
    """Performance/area figure of merit (inverse cycles per mm^2, Fig. 18).

    The paper normalises both speed-up and area to the SIGMA-like design, so
    only ratios of this quantity are meaningful.
    """
    if cycles <= 0 or area_mm2 <= 0:
        raise ValueError("cycles and area must be positive")
    return 1.0 / (cycles * area_mm2)
