"""Flexagon reproduction: a multi-dataflow SpMSpM accelerator model.

The package reproduces, in pure Python, the system described in

    "Flexagon: A Multi-Dataflow Sparse-Sparse Matrix Multiplication
     Accelerator for Efficient DNN Processing", ASPLOS 2023.

Public API layers (README, "Repository layout", lists every package):

* :mod:`repro.api` — **the public facade**: :class:`Session`,
  declarative :class:`SweepSpec`/:class:`FigureQuery` requests, typed
  JSON-round-trippable responses, and the ``python -m repro`` CLI.
* :mod:`repro.sparse` — compressed formats (CSR/CSC) and generators.
* :mod:`repro.dataflows` — the six SpMSpM dataflows: taxonomy, transitions
  and operation counters.
* :mod:`repro.arch` — the accelerator configuration (Table 5) and the DRAM
  model.
* :mod:`repro.accelerators` — the engine all four hardware designs share,
  the CPU baseline and the area/power model.  The designs themselves —
  Flexagon and the SIGMA-like, SpArch-like and GAMMA-like baselines — are
  rows of dataflows in :mod:`repro.runtime.jobs`.
* :mod:`repro.core` — the mapper (per-layer dataflow analysis).
* :mod:`repro.workloads` — the 8 DNN models and 9 representative layers of
  the paper's evaluation.
* :mod:`repro.metrics` — result records and report formatting.
"""

__version__ = "1.1.0"

from repro.sparse import (
    CompressedMatrix,
    Layout,
    csr_from_dense,
    csc_from_dense,
    random_sparse,
)
from repro.dataflows import Dataflow, DataflowClass
from repro.api import FigureQuery, Session, SweepSpec

__all__ = [
    "__version__",
    "CompressedMatrix",
    "Layout",
    "csr_from_dense",
    "csc_from_dense",
    "random_sparse",
    "Dataflow",
    "DataflowClass",
    "FigureQuery",
    "Session",
    "SweepSpec",
]
