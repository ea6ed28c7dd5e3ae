"""Memory models of Flexagon (Section 3.4, Fig. 9).

* :mod:`repro.arch.memory.dram` — the off-chip HBM model every on-chip
  structure fills from and drains to; the engine charges its traffic.

The engine computes the streaming cache's hits in batches
(:mod:`repro.engine_vec.cache_model`) and models PSRAM occupancy
analytically from fiber lengths; the stationary FIFO and the write buffer
appear only as sizes in :class:`repro.arch.config.AcceleratorConfig`.
"""

from repro.arch.memory.dram import DramModel, DramTrafficCounter

__all__ = [
    "DramModel",
    "DramTrafficCounter",
]
