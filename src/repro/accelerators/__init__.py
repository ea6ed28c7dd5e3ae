"""Accelerator models: the shared engine, the CPU baseline and the area model.

* :class:`~repro.accelerators.engine.SpmspmEngine` — the cycle-accounting
  substrate all four hardware designs run on.  The designs differ only in
  which dataflows they may configure on it, so a design is a row of
  :data:`repro.runtime.jobs.DESIGN_DATAFLOWS` (Flexagon: all six, chosen per
  layer; SIGMA-like, SpArch-like and GAMMA-like: one family each), run by
  :func:`repro.runtime.jobs.run_design`.
* :class:`~repro.accelerators.cpu.CpuMklLikeBaseline` — the CPU MKL-style
  software baseline of Table 2 / Fig. 12.
* :mod:`repro.accelerators.area_power` — the analytical area/power model
  behind Table 8, Fig. 17 and Fig. 18, where the designs also differ.
"""

from repro.accelerators.engine import SpmspmEngine
from repro.accelerators.cpu import CpuMklLikeBaseline
from repro.accelerators.area_power import (
    AreaPowerBreakdown,
    accelerator_area_power,
    naive_triple_network_area,
)

__all__ = [
    "SpmspmEngine",
    "CpuMklLikeBaseline",
    "AreaPowerBreakdown",
    "accelerator_area_power",
    "naive_triple_network_area",
]
