"""The mapper: the offline dataflow analysis of Fig. 3b (phase 1).

* :mod:`repro.core.mapper` — decide, per layer, which of the six dataflows
  to configure: a closed-form heuristic and an oracle that simulates every
  candidate on the engine.
"""

from repro.core.mapper import HeuristicMapper, OracleMapper

__all__ = [
    "HeuristicMapper",
    "OracleMapper",
]
