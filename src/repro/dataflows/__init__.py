"""The six SpMSpM dataflows as the engine and the mapper see them (Section 2.2).

* :mod:`repro.dataflows.base` — the taxonomy: the six loop orders, their
  families and their Table 3 properties (operand and output formats,
  intersection and merging units).
* :mod:`repro.dataflows.transitions` — which dataflow may follow which
  without an explicit format conversion (Table 4).
* :mod:`repro.dataflows.stats` — the operation counters (multiplications,
  intersections, partial-sum writes/reads, merge comparisons) every engine
  run records and the accelerator models turn into cycles and traffic.

The engine computes those counts from the operand structure without
executing the product; the tests check them against functional
implementations of the six dataflows kept outside the package.
"""

from repro.dataflows.base import (
    Dataflow,
    DataflowClass,
    DataflowProperties,
    DATAFLOW_PROPERTIES,
    taxonomy_table,
)
from repro.dataflows.stats import DataflowStats
from repro.dataflows.transitions import (
    TransitionTable,
    requires_explicit_conversion,
    transition_table,
)

__all__ = [
    "Dataflow",
    "DataflowClass",
    "DataflowProperties",
    "DATAFLOW_PROPERTIES",
    "taxonomy_table",
    "DataflowStats",
    "TransitionTable",
    "requires_explicit_conversion",
    "transition_table",
]
