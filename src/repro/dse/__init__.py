"""Design-space exploration: open workload and architecture axes.

Three parts (see the per-module docstrings):

* :mod:`repro.dse.workloads` — named workloads: a streamed
  MatrixMarket/SuiteSparse loader plus transformer-pruning and
  GNN-adjacency synthetic generators.
* :mod:`repro.dse.designs` — named design points: crossbar-width,
  memory-hierarchy and 3D-stacked ``AcceleratorConfig`` families.
* :mod:`repro.dse.explore` — :class:`DseSpec`, the (workload x design)
  grid request, and the deterministic Pareto report collation.

``explore`` is resolved lazily: it pulls in :mod:`repro.runtime`, which
the registries themselves do not need, and keeping the registries light
lets the CLI list workloads/designs without paying for the runtime import.
"""

from repro.dse.designs import (
    BUILTIN_DESIGN_POINTS,
    DesignPoint,
    default_design_points,
    design_point_names,
    enumerate_designs,
    get_design_point,
    register_design_point,
)
from repro.dse.workloads import (
    BUILTIN_WORKLOADS,
    MatrixMarketError,
    Workload,
    get_workload,
    gnn_adjacency,
    has_workload,
    load_matrix_market,
    matrix_workload,
    register_workload,
    transformer_pruning,
    workload_names,
)

__all__ = [
    "BUILTIN_DESIGN_POINTS",
    "BUILTIN_WORKLOADS",
    "DesignPoint",
    "DseSpec",
    "MatrixMarketError",
    "Workload",
    "collate_dse",
    "default_design_points",
    "design_point_names",
    "dse_report_key",
    "enumerate_designs",
    "get_design_point",
    "get_workload",
    "gnn_adjacency",
    "has_workload",
    "load_matrix_market",
    "matrix_workload",
    "register_design_point",
    "register_workload",
    "transformer_pruning",
    "workload_names",
]

_LAZY_EXPLORE = ("DseSpec", "collate_dse", "dse_report_key")


def __getattr__(name: str):
    if name in _LAZY_EXPLORE:
        from repro.dse import explore

        return getattr(explore, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
