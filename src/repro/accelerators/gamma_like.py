"""GAMMA-like baseline: a fixed Gustavson (row-wise product) accelerator.

Captures the essence of GAMMA (Table 1 / Section 4): row-wise product with a
fiber cache for the streaming operand and a merger for the per-row partial
fibers.  On the shared substrate this corresponds to always configuring
Gustavson's dataflow.
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator
from repro.dataflows.base import Dataflow
from repro.sparse.formats import CompressedMatrix


class GammaLikeAccelerator(Accelerator):
    """Fixed-dataflow Gustavson (Gust) design."""

    name = "GAMMA-like"

    @property
    def supported_dataflows(self) -> tuple[Dataflow, ...]:
        return (Dataflow.GUST_M, Dataflow.GUST_N)

    def choose_dataflow(self, a: CompressedMatrix, b: CompressedMatrix) -> Dataflow:
        """The M-stationary variant: the family is always Gustavson."""
        return Dataflow.GUST_M
