"""Design-point registry of the design-space-exploration subsystem.

The paper evaluates one fixed Table 5 configuration; this module opens the
architecture axis with parameterized :class:`~repro.arch.config.AcceleratorConfig`
families, following the precedent of the reconfigurable-substrate and
3D-stacked-memory papers in PAPERS.md:

* **Crossbar width** (``xbar*``) — Versa-style scaling of the multiplier
  network (and, proportionally, the distribution / reduction bandwidth).
* **Memory hierarchy** (``mem-*``) — streaming-cache x PSRAM capacity
  cross product, the on-chip SRAM trade-off.
* **3D-stacked latency** (``3d-*``) — RevaMp3D-style monolithic stacking:
  DRAM access latency divided and bandwidth multiplied by the stacking
  factor.

Each family is enumerated from declarative ranges; candidate configs that
violate :class:`AcceleratorConfig`'s validity constraints (line/associativity
divisibility, tree sizing) are skipped rather than raised, so widening a
range can never break enumeration.  Points register by name exactly like
workloads so ``DseSpec`` can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerators.area_power import AreaPowerBreakdown, accelerator_area_power
from repro.arch.config import AcceleratorConfig, DramConfig, default_config


@dataclass(frozen=True)
class DesignPoint:
    """One named hardware candidate: an accelerator plus its configuration."""

    name: str
    family: str
    config: AcceleratorConfig = field(default_factory=default_config)
    accelerator: str = "Flexagon"

    def area_power(self) -> AreaPowerBreakdown:
        """Analytical area/power breakdown at this configuration."""
        return accelerator_area_power(self.accelerator, self.config)

    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form (stable: feeds :meth:`DseSpec.key`)."""
        return {
            "name": self.name,
            "family": self.family,
            "accelerator": self.accelerator,
            "config": self.config.to_record(),
        }


# ----------------------------------------------------------------------
# Declarative family ranges
# ----------------------------------------------------------------------
#: Multiplier-network widths beyond the Table 5 value of 64.  Network
#: bandwidths scale proportionally (width / 4, floored at 2) so the
#: distribution network keeps feeding the wider array.
CROSSBAR_WIDTHS: tuple[int, ...] = (16, 32, 128)

#: Streaming-cache capacities (KiB) x PSRAM capacities (KiB).
CACHE_KIB: tuple[int, ...] = (256, 4096)
PSRAM_KIB: tuple[int, ...] = (128, 512)

#: 3D-stacking factors: latency / stacking, bandwidth x stacking.
STACKING_FACTORS: tuple[int, ...] = (2, 4, 8)

#: Table 5 DRAM latency/bandwidth the stacked variants scale from.
_BASE_DRAM_NS = 100.0
_BASE_DRAM_BW = 256e9


def _family_candidates() -> list[DesignPoint]:
    points = [DesignPoint(name="base", family="baseline")]
    for width in CROSSBAR_WIDTHS:
        bandwidth = max(2, width // 4)
        points.append(
            DesignPoint(
                name=f"xbar{width}",
                family="crossbar",
                config=default_config(
                    num_multipliers=width,
                    distribution_bandwidth=bandwidth,
                    reduction_bandwidth=bandwidth,
                ),
            )
        )
    for cache_kib in CACHE_KIB:
        for psram_kib in PSRAM_KIB:
            points.append(
                DesignPoint(
                    name=f"mem-c{cache_kib}k-p{psram_kib}k",
                    family="memory",
                    config=default_config(
                        str_cache_bytes=cache_kib * 1024,
                        psram_bytes=psram_kib * 1024,
                    ),
                )
            )
    for factor in STACKING_FACTORS:
        points.append(
            DesignPoint(
                name=f"3d-x{factor}",
                family="stacked",
                config=default_config(
                    dram=DramConfig(
                        access_time_ns=_BASE_DRAM_NS / factor,
                        bandwidth_bytes_per_s=_BASE_DRAM_BW * factor,
                    )
                ),
            )
        )
    return points


def enumerate_designs(family: str | None = None) -> tuple[DesignPoint, ...]:
    """All valid points of ``family`` (or of every family), in range order.

    A candidate whose configuration violates the ``AcceleratorConfig``
    constraints is silently dropped — the ranges above are declarative and
    individually checked, not guaranteed mutually consistent.
    """
    points = []
    for point in _family_candidates():
        if family is not None and point.family != family:
            continue
        try:
            point.area_power()
        except ValueError:
            continue
        points.append(point)
    return tuple(points)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, DesignPoint] = {}


def register_design_point(point: DesignPoint, *, replace: bool = False) -> DesignPoint:
    """Register one design point by name; re-registering an equal one is a no-op."""
    existing = _REGISTRY.get(point.name)
    if existing is not None and existing != point and not replace:
        raise ValueError(f"design point {point.name!r} is already registered")
    _REGISTRY[point.name] = point
    return point


def design_point_names() -> tuple[str, ...]:
    """Every registered design-point name, sorted."""
    return tuple(sorted(_REGISTRY))


def get_design_point(name: str) -> DesignPoint:
    """The registered point for ``name`` (``ValueError`` names the options)."""
    point = _REGISTRY.get(name)
    if point is None:
        raise ValueError(
            f"unknown design point {name!r}; expected one of {design_point_names()}"
        )
    return point


def default_design_points() -> tuple[str, ...]:
    """The names a ``DseSpec`` sweeps when none are requested: every family."""
    return tuple(point.name for point in BUILTIN_DESIGN_POINTS)


BUILTIN_DESIGN_POINTS: tuple[DesignPoint, ...] = enumerate_designs()

for _point in BUILTIN_DESIGN_POINTS:
    register_design_point(_point)
del _point
