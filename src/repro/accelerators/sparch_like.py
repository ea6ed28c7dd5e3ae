"""SpArch-like baseline: a fixed Outer-Product accelerator.

Captures the essence of SpArch (Table 1 / Section 4): outer-product partial
matrix generation followed by a merger tree, with a partial-sum memory
(our PSRAM stands in for its matrix condenser + merge buffers).  On the
shared substrate this corresponds to always configuring the Outer-Product
dataflow.
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator
from repro.dataflows.base import Dataflow
from repro.sparse.formats import CompressedMatrix


class SparchLikeAccelerator(Accelerator):
    """Fixed-dataflow Outer-Product (OP) design."""

    name = "SpArch-like"

    @property
    def supported_dataflows(self) -> tuple[Dataflow, ...]:
        return (Dataflow.OP_M, Dataflow.OP_N)

    def choose_dataflow(self, a: CompressedMatrix, b: CompressedMatrix) -> Dataflow:
        """The M-stationary variant: the family is always Outer Product."""
        return Dataflow.OP_M
