"""The Flexagon accelerator: all six dataflows on one substrate.

Flexagon's advantage over the fixed-dataflow baselines is entirely in *which*
dataflow it configures per layer (the hardware sizing is the same).  The
selection is performed offline by the mapper (Fig. 3b phase 1); here the
accelerator defers to :mod:`repro.core.mapper`, which offers a
characteristics-based heuristic (the default) and an oracle that exhaustively
simulates the candidates.
"""

from __future__ import annotations

from repro.accelerators.base import Accelerator
from repro.arch.config import AcceleratorConfig
from repro.dataflows.base import Dataflow
from repro.sparse.formats import CompressedMatrix


class FlexagonAccelerator(Accelerator):
    """The reconfigurable multi-dataflow design of the paper."""

    name = "Flexagon"

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        *,
        mapper: "object | None" = None,
    ) -> None:
        super().__init__(config)
        if mapper is None:
            # Imported lazily to keep the accelerators package importable
            # without the core package (and to avoid an import cycle).
            from repro.core.mapper import HeuristicMapper

            mapper = HeuristicMapper(self.config)
        self.mapper = mapper

    @property
    def supported_dataflows(self) -> tuple[Dataflow, ...]:
        return tuple(Dataflow)

    def choose_dataflow(self, a: CompressedMatrix, b: CompressedMatrix) -> Dataflow:
        """Delegate the per-layer dataflow decision to the configured mapper."""
        return self.mapper.select(a, b)
