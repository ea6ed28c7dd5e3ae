"""The outcome of one functional dataflow execution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflows.stats import DataflowStats


@dataclass
class DataflowResult:
    """The outcome of running one functional dataflow execution."""

    #: The product matrix, in the output layout Table 3 prescribes.
    output: "object"
    #: Operation counters accumulated during the run.
    stats: DataflowStats = field(default_factory=DataflowStats)
