"""SIGMA-like baseline: a fixed Inner-Product accelerator.

Captures the essence of SIGMA (Table 1 / Section 4): a flexible reduction
network (FAN) that reduces clusters of dot products at once, intersection at
the controller, and no partial-sum memory.  On the shared substrate this
corresponds to always configuring the Inner-Product dataflow.
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator
from repro.dataflows.base import Dataflow
from repro.sparse.formats import CompressedMatrix


class SigmaLikeAccelerator(Accelerator):
    """Fixed-dataflow Inner-Product (IP) design."""

    name = "SIGMA-like"

    @property
    def supported_dataflows(self) -> tuple[Dataflow, ...]:
        return (Dataflow.IP_M, Dataflow.IP_N)

    def choose_dataflow(self, a: CompressedMatrix, b: CompressedMatrix) -> Dataflow:
        """The M-stationary variant: the family is always Inner Product."""
        return Dataflow.IP_M
