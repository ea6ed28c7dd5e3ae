"""Off-chip DRAM model.

The paper attaches the accelerator to an HBM 2.0 DRAM simulated with SST; the
quantities its evaluation actually uses are the off-chip traffic volume
(Fig. 16) and the time the memory-bound phases spend waiting for DRAM
bandwidth/latency.  :class:`DramModel` therefore tracks bytes read and written
per logical stream and converts them into cycle costs with a simple
latency + bandwidth model, which is what determines the memory-bound phase
durations in the accelerator models.
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

    def merged_with(self, other: "DramTrafficCounter") -> "DramTrafficCounter":
        """Element-wise sum of two counters."""
        return DramTrafficCounter(
            sta_read_bytes=self.sta_read_bytes + other.sta_read_bytes,
            str_read_bytes=self.str_read_bytes + other.str_read_bytes,
            output_write_bytes=self.output_write_bytes + other.output_write_bytes,
            psum_spill_bytes=self.psum_spill_bytes + other.psum_spill_bytes,
        )


@dataclass
class DramModel:
    """Latency + bandwidth cost model for the off-chip memory."""

    config: DramConfig = field(default_factory=DramConfig)
    frequency_hz: float = 800e6
    traffic: DramTrafficCounter = field(default_factory=DramTrafficCounter)
    #: Number of individual requests issued (each pays the access latency once,
    #: but requests to a streaming interface are pipelined so only a fraction
    #: is exposed; see :meth:`cycles_for`).
    requests: int = 0

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
        if nbytes:
            self.requests += 1

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    @property
    def latency_cycles(self) -> int:
        """Access latency of one request in core cycles."""
        return int(round(self.config.access_time_ns * 1e-9 * self.frequency_hz))

    @property
    def bytes_per_cycle(self) -> float:
        """Sustained DRAM bandwidth per core cycle."""
        return self.config.bandwidth_bytes_per_s / self.frequency_hz

    def cycles_for(self, nbytes: int, *, streamed: bool = True) -> float:
        """Cycles needed to transfer ``nbytes``.

        ``streamed`` requests overlap their latency with the transfer of the
        previous request (the tile fillers prefetch ahead), so only one
        latency is exposed; non-streamed (pointer-chasing) requests pay the
        latency per request.
        """
        if nbytes <= 0:
            return 0.0
        transfer = nbytes / self.bytes_per_cycle
        if streamed:
            return self.latency_cycles + transfer
        return self.latency_cycles + transfer
