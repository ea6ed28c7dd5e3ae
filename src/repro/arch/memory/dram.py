"""Off-chip DRAM model.

The paper attaches the accelerator to an HBM 2.0 DRAM simulated with SST; the
quantities its evaluation actually uses are the off-chip traffic volume
(Fig. 16) and the time the memory-bound phases spend waiting for DRAM
bandwidth/latency.  :class:`DramModel` therefore tracks bytes read and written
per logical stream and gives the bandwidth that prices them in cycles; the
latency a miss exposes is the configuration's
``exposed_miss_latency_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import DramConfig


@dataclass
class DramTrafficCounter:
    """Bytes moved to/from DRAM, broken down by logical stream."""

    #: Bytes read to fill the stationary-matrix FIFO.
    sta_read_bytes: int = 0
    #: Bytes read to fill the streaming-matrix cache (its miss traffic).
    str_read_bytes: int = 0
    #: Bytes of final output written to DRAM.
    output_write_bytes: int = 0
    #: Bytes of partial sums spilled to DRAM (only when the PSRAM overflows).
    psum_spill_bytes: int = 0

    @property
    def total_read_bytes(self) -> int:
        """All bytes read from DRAM."""
        return self.sta_read_bytes + self.str_read_bytes

    @property
    def total_write_bytes(self) -> int:
        """All bytes written to DRAM."""
        return self.output_write_bytes + self.psum_spill_bytes

    @property
    def total_bytes(self) -> int:
        """Total off-chip traffic (the quantity of Fig. 16)."""
        return self.total_read_bytes + self.total_write_bytes


@dataclass
class DramModel:
    """Traffic counters and bandwidth of the off-chip memory."""

    config: DramConfig = field(default_factory=DramConfig)
    frequency_hz: float = 800e6
    traffic: DramTrafficCounter = field(default_factory=DramTrafficCounter)

    # ------------------------------------------------------------------
    # Recording traffic
    # ------------------------------------------------------------------
    def read_stationary(self, nbytes: int) -> None:
        """Record ``nbytes`` read from DRAM into the stationary FIFO."""
        self._record(nbytes)
        self.traffic.sta_read_bytes += int(nbytes)

    def read_streaming(self, nbytes: int) -> None:
        """Record ``nbytes`` of streaming-cache miss traffic."""
        self._record(nbytes)
        self.traffic.str_read_bytes += int(nbytes)

    def write_output(self, nbytes: int) -> None:
        """Record ``nbytes`` of final output written back."""
        self._record(nbytes)
        self.traffic.output_write_bytes += int(nbytes)

    def spill_psums(self, nbytes: int) -> None:
        """Record ``nbytes`` of partial sums spilled off chip."""
        self._record(nbytes)
        self.traffic.psum_spill_bytes += int(nbytes)

    def _record(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("traffic must be non-negative")

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    @property
    def bytes_per_cycle(self) -> float:
        """Sustained DRAM bandwidth per core cycle."""
        return self.config.bandwidth_bytes_per_s / self.frequency_hz
