"""Common interface of the simulated accelerator designs."""

from __future__ import annotations

import abc

from repro.arch.config import AcceleratorConfig, default_config
from repro.accelerators.engine import SpmspmEngine
from repro.dataflows.base import Dataflow
from repro.metrics.results import LayerSimResult
from repro.sparse.formats import CompressedMatrix


class Accelerator(abc.ABC):
    """Base class for the four simulated hardware designs.

    Every design wraps the shared :class:`SpmspmEngine` substrate; what a
    concrete subclass decides is *which dataflows it is allowed to configure*
    for a given layer (Flexagon: all six; the baselines: exactly one family).
    """

    #: Human-readable name used in result records and benchmark tables.
    name: str = "accelerator"

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or default_config()
        self.engine = SpmspmEngine(self.config)
        #: Optional serial :class:`~repro.runtime.BatchRunner` that routes
        #: the configured engine run through the shared content-addressed
        #: result cache (attached by :func:`repro.runtime.build_design`).
        #: Engine jobs are keyed by (config, operands, dataflow) alone, so a
        #: run this design needs is often already cached — typically as one
        #: of the oracle mapper's candidate trials over the same operands.
        #: ``None`` simulates directly.
        self.engine_job_runner = None

    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def supported_dataflows(self) -> tuple[Dataflow, ...]:
        """The dataflows this design can execute."""

    @abc.abstractmethod
    def choose_dataflow(self, a: CompressedMatrix, b: CompressedMatrix) -> Dataflow:
        """Pick the dataflow this design would configure for the given layer."""

    # ------------------------------------------------------------------
    def run_layer(
        self,
        a: CompressedMatrix,
        b: CompressedMatrix,
        *,
        dataflow: Dataflow | None = None,
        layer_name: str = "",
    ) -> LayerSimResult:
        """Simulate one SpMSpM layer on this design.

        When ``dataflow`` is omitted the design's own selection policy is
        used.  The chosen dataflow is validated against
        :attr:`supported_dataflows` in *both* cases: a forced dataflow guards
        the caller, and a policy choice guards against a misconfigured
        mapper (e.g. a custom mapper handed to Flexagon that returns a
        dataflow the design cannot configure).
        """
        if dataflow is not None:
            chosen, source = dataflow, "forced by the caller"
        else:
            chosen = self.choose_dataflow(a, b)
            source = f"chosen by {type(self).__name__}.choose_dataflow"
        if chosen not in self.supported_dataflows:
            label = (
                chosen.informal_name if isinstance(chosen, Dataflow) else repr(chosen)
            )
            raise ValueError(
                f"{self.name} does not support the {label} dataflow ({source})"
            )
        if self.engine_job_runner is not None:
            # Run the engine as a content-addressed job: bit-equivalent to
            # the direct call below (the engine is a pure function of
            # (config, dataflow, operands)), but memoized — the record is
            # shared with the oracle mapper's trials and with every other
            # design that configures the same dataflow over these operands.
            from dataclasses import replace

            from repro.runtime.jobs import ENGINE_DESIGN, SimJob

            record = self.engine_job_runner.run_one(
                SimJob(
                    design=ENGINE_DESIGN,
                    config=self.config,
                    a=a,
                    b=b,
                    dataflow=chosen,
                )
            )
            return replace(record, accelerator=self.name, layer_name=layer_name)
        return self.engine.run_layer(
            chosen, a, b, layer_name=layer_name, accelerator_name=self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(multipliers={self.config.num_multipliers})"
