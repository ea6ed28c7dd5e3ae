"""Hardware parameters and the component models outside the engine.

* :mod:`repro.arch.config` — the accelerator configuration (Table 5).
* :mod:`repro.arch.memory.dram` — the off-chip DRAM traffic model the engine
  charges.

The package itself imports only the configuration.
"""

from repro.arch.config import AcceleratorConfig, default_config

__all__ = [
    "AcceleratorConfig",
    "default_config",
]
