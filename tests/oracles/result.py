"""The outcome of one functional dataflow execution."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataflows.stats import DataflowStats
from repro.sparse.formats import Layout


@dataclass
class DataflowResult:
    """The outcome of running one functional dataflow execution."""

    #: The product matrix C, dense.
    output: np.ndarray
    #: The layout Table 3 prescribes for C: CSR when M-stationary, else CSC.
    layout: Layout
    #: Operation counters accumulated during the run.
    stats: DataflowStats = field(default_factory=DataflowStats)
