"""Hardware parameters and the component models outside the engine.

* :mod:`repro.arch.config` — the accelerator configuration (Table 5).
* :mod:`repro.arch.memory.dram` — the off-chip DRAM traffic model the engine
  charges.
* :mod:`repro.arch.mrn` — a tick-level micro-simulation of the
  Merger-Reduction Network, the check of the engine's closed-form merge cost
  (``benchmarks/bench_ablation_mrn.py``).
* :mod:`repro.arch.memory.cache` and :mod:`repro.arch.controllers.streaming`
  — the per-line streaming cache and its fiber reader, the cache model of
  the test oracle :class:`repro.accelerators.reference.ReferenceEngine`.

The package itself imports only the configuration, so the product never
loads the MRN micro-simulation or the oracle's cache model.
"""

from repro.arch.config import AcceleratorConfig, default_config

__all__ = [
    "AcceleratorConfig",
    "default_config",
]
