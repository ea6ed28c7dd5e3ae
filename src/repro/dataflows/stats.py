"""Operation-count statistics gathered while executing a dataflow.

The functional dataflow implementations in this package record, element by
element, how much work each phase of the accelerator would have to perform.
The hardware models in :mod:`repro.accelerators` convert these counts (plus
cache and PSRAM behaviour) into cycles and traffic, so the fields below mirror
the quantities the paper's evaluation plots:

* effectual multiplications (the work the Multiplier Network performs),
* intersection probes (the work of aligning operands in IP / Gust),
* partial sums written to and read back from the PSRAM (OP / Gust only),
* merge comparisons performed by the MRN, and
* the number of elements read from each input operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DataflowStats:
    """Counters accumulated over one SpMSpM execution."""

    #: Effectual multiply operations issued to the multiplier network.
    multiplications: int = 0
    #: Coordinate comparisons performed to align operands (IP and Gust only).
    intersection_probes: int = 0
    #: Partial-sum elements written to the PSRAM (OP and Gust spill only).
    psum_writes: int = 0
    #: Partial-sum elements read back from the PSRAM during merging.
    psum_reads: int = 0
    #: Pairwise comparisons performed by the merge tree.
    merge_comparisons: int = 0
    #: Additions performed (both IP reductions and merge-time accumulations).
    additions: int = 0
    #: Elements of the stationary operand loaded into the multipliers.
    stationary_elements_read: int = 0
    #: Elements of the streaming operand delivered by the distribution network.
    streaming_elements_read: int = 0
    #: Final output elements produced (nnz of C).
    output_elements: int = 0
    #: Number of stationary-phase iterations (how many times the multiplier
    #: array was refilled).
    stationary_iterations: int = 0
    #: Number of merge passes that had to respill because a row had more
    #: partial fibers than tree leaves.
    merge_passes: int = 0

    def merged_with(self, other: "DataflowStats") -> "DataflowStats":
        """Return the element-wise sum of two stats records."""
        return DataflowStats(
            multiplications=self.multiplications + other.multiplications,
            intersection_probes=self.intersection_probes + other.intersection_probes,
            psum_writes=self.psum_writes + other.psum_writes,
            psum_reads=self.psum_reads + other.psum_reads,
            merge_comparisons=self.merge_comparisons + other.merge_comparisons,
            additions=self.additions + other.additions,
            stationary_elements_read=(
                self.stationary_elements_read + other.stationary_elements_read
            ),
            streaming_elements_read=(
                self.streaming_elements_read + other.streaming_elements_read
            ),
            output_elements=self.output_elements + other.output_elements,
            stationary_iterations=self.stationary_iterations + other.stationary_iterations,
            merge_passes=self.merge_passes + other.merge_passes,
        )

    @property
    def total_compute_ops(self) -> int:
        """Multiplications plus additions: the arithmetic the datapath executes."""
        return self.multiplications + self.additions

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view used by the reporting helpers."""
        return {
            "multiplications": self.multiplications,
            "intersection_probes": self.intersection_probes,
            "psum_writes": self.psum_writes,
            "psum_reads": self.psum_reads,
            "merge_comparisons": self.merge_comparisons,
            "additions": self.additions,
            "stationary_elements_read": self.stationary_elements_read,
            "streaming_elements_read": self.streaming_elements_read,
            "output_elements": self.output_elements,
            "stationary_iterations": self.stationary_iterations,
            "merge_passes": self.merge_passes,
        }


@dataclass
class DataflowResult:
    """The outcome of running one functional dataflow execution."""

    #: The product matrix, in the output layout Table 3 prescribes.
    output: "object"
    #: Operation counters accumulated during the run.
    stats: DataflowStats = field(default_factory=DataflowStats)
