"""Flexagon reproduction: a multi-dataflow SpMSpM accelerator model.

The package reproduces, in pure Python, the system described in

    "Flexagon: A Multi-Dataflow Sparse-Sparse Matrix Multiplication
     Accelerator for Efficient DNN Processing", ASPLOS 2023.

Public API layers (README, "Repository layout", lists every package):

* :mod:`repro.api` — **the public facade**: :class:`Session`,
  declarative :class:`SweepSpec`/:class:`FigureQuery` requests, typed
  JSON-round-trippable responses, and the ``python -m repro`` CLI.
* :mod:`repro.sparse` — compressed formats (CSR/CSC), fibers, generators.
* :mod:`repro.dataflows` — the six SpMSpM dataflows and their taxonomy.
* :mod:`repro.arch` — the accelerator configuration (Table 5), the DRAM
  model, the MRN micro-simulation, and the test oracle's per-line streaming
  cache.
* :mod:`repro.accelerators` — Flexagon plus the SIGMA-like, SpArch-like,
  GAMMA-like and CPU baselines, and the area/power model.
* :mod:`repro.core` — the mapper (per-layer dataflow analysis).
* :mod:`repro.workloads` — the 8 DNN models and 9 representative layers of
  the paper's evaluation.
* :mod:`repro.metrics` — result records and report formatting.
"""

__version__ = "1.1.0"

from repro.sparse import (
    CompressedMatrix,
    Fiber,
    Layout,
    csr_from_dense,
    csc_from_dense,
    random_sparse,
)
from repro.dataflows import Dataflow, DataflowClass, run_dataflow
from repro.api import FigureQuery, Session, SweepSpec

__all__ = [
    "__version__",
    "CompressedMatrix",
    "Fiber",
    "Layout",
    "csr_from_dense",
    "csc_from_dense",
    "random_sparse",
    "Dataflow",
    "DataflowClass",
    "run_dataflow",
    "FigureQuery",
    "Session",
    "SweepSpec",
]
