"""Accelerator configuration: the parameters of Table 5.

A single :class:`AcceleratorConfig` instance describes one hardware design
point and is shared by Flexagon and the three fixed-dataflow baselines (the
paper models all four with the same sizing and only changes the reduction /
merge network and the memory controllers).
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields, replace

#: The numeric field annotations, and the type each such field is stored as.
_NUMERIC_TYPES = {"int": int, "float": float, "float | None": float}


def coerce_numeric_fields(instance) -> None:
    """Store every numeric field of a frozen dataclass as its declared type.

    Equal numbers spelled differently (``8e8`` and ``800000000``) compare and
    hash alike, so the memos keyed by value (``runtime.jobs._config_blob``,
    ``wire.settings_key``) would hand one spelling's JSON to the other, and a
    content key would depend on what the process keyed first.  A value that
    is no number, or a non-integral one for an ``int`` field, is rejected.
    """
    for spec in fields(instance):
        kind = _NUMERIC_TYPES.get(spec.type)
        value = getattr(instance, spec.name)
        if kind is None or value is None:
            continue
        if not isinstance(value, numbers.Real) or (kind is int and not float(value).is_integer()):
            raise ValueError(f"{spec.name} must be {spec.type}, got {value!r}")
        object.__setattr__(instance, spec.name, kind(value))


@dataclass(frozen=True)
class DramConfig:
    """Off-chip memory parameters (HBM 2.0 in the paper)."""

    #: Total capacity in bytes (16 GiB in Table 5).
    size_bytes: int = 16 * 1024**3
    #: Access latency in nanoseconds.
    access_time_ns: float = 100.0
    #: Sustained bandwidth in bytes per second (256 GB/s in Table 5).
    bandwidth_bytes_per_s: float = 256e9

    def __post_init__(self) -> None:
        coerce_numeric_fields(self)


@dataclass(frozen=True)
class AcceleratorConfig:
    """One Flexagon-style design point (defaults reproduce Table 5)."""

    #: Number of multiplier switches in the Multiplier Network.
    num_multipliers: int = 64
    #: Number of adder/comparator nodes in the MRN (a binary tree over the
    #: multipliers has ``num_multipliers - 1`` internal nodes).
    num_adders: int = 63
    #: Elements per cycle the Distribution Network can deliver.
    distribution_bandwidth: int = 16
    #: Elements per cycle the MRN can accept / emit.
    reduction_bandwidth: int = 16
    #: Bits per on-chip word (value + coordinate packed together).
    word_bits: int = 32
    #: L1 access latency in cycles.
    l1_latency_cycles: int = 1
    #: Stationary-matrix FIFO capacity in bytes.
    sta_fifo_bytes: int = 256
    #: Streaming-matrix cache capacity in bytes (1 MiB in Table 5).
    str_cache_bytes: int = 1 * 1024**2
    #: Streaming-matrix cache line size in bytes.
    str_cache_line_bytes: int = 128
    #: Streaming-matrix cache associativity.
    str_cache_associativity: int = 16
    #: Streaming-matrix cache banks.
    str_cache_banks: int = 16
    #: PSRAM capacity in bytes (256 KiB in Table 5).
    psram_bytes: int = 256 * 1024
    #: PSRAM block (line) size in bytes.
    psram_block_bytes: int = 128
    #: PSRAM banks (parallel fiber reads during merging).
    psram_banks: int = 16
    #: Output write-buffer FIFO capacity in bytes.
    write_buffer_bytes: int = 512
    #: Outstanding-miss capacity of the streaming-cache / DRAM interface.
    #: Sequential streams are fully prefetched, but the irregular, on-demand
    #: fiber gathers of the Gustavson dataflow expose a fraction of the DRAM
    #: latency: ``dram_latency_cycles / dram_outstanding_misses`` per miss.
    dram_outstanding_misses: int = 8
    #: Clock frequency in Hz (800 MHz, Section 4).
    frequency_hz: float = 800e6
    #: Off-chip DRAM parameters.
    dram: DramConfig = field(default_factory=DramConfig)

    def __post_init__(self) -> None:
        coerce_numeric_fields(self)
        if self.num_multipliers < 1:
            raise ValueError("num_multipliers must be positive")
        if self.num_adders != self.num_multipliers - 1:
            raise ValueError(
                "a binary merge/reduce tree over N multipliers has N-1 nodes; "
                f"got num_multipliers={self.num_multipliers}, num_adders={self.num_adders}"
            )
        if self.distribution_bandwidth < 1 or self.reduction_bandwidth < 1:
            raise ValueError("network bandwidths must be positive")
        for name in (
            "str_cache_bytes",
            "str_cache_line_bytes",
            "str_cache_associativity",
            "psram_block_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.str_cache_bytes % self.str_cache_line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        num_lines = self.str_cache_bytes // self.str_cache_line_bytes
        if num_lines % self.str_cache_associativity:
            raise ValueError("cache lines must divide evenly into associative sets")
        if self.psram_bytes % self.psram_block_bytes:
            raise ValueError("PSRAM size must be a multiple of the block size")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def element_bytes(self) -> int:
        """Bytes per on-chip element (value + coordinate packed word)."""
        return self.word_bits // 8

    @property
    def str_cache_sets(self) -> int:
        """Number of sets in the streaming cache."""
        return (self.str_cache_bytes // self.str_cache_line_bytes) // self.str_cache_associativity

    @property
    def psram_blocks(self) -> int:
        """Total number of PSRAM blocks."""
        return self.psram_bytes // self.psram_block_bytes

    @property
    def psram_elements_per_block(self) -> int:
        """Elements that fit in one PSRAM block."""
        return self.psram_block_bytes // self.element_bytes

    @property
    def dram_latency_cycles(self) -> int:
        """DRAM access latency expressed in core cycles."""
        return int(round(self.dram.access_time_ns * 1e-9 * self.frequency_hz))

    @property
    def dram_bytes_per_cycle(self) -> float:
        """DRAM bandwidth expressed in bytes per core cycle."""
        return self.dram.bandwidth_bytes_per_s / self.frequency_hz

    @property
    def exposed_miss_latency_cycles(self) -> float:
        """Average stall cycles one irregular cache miss exposes to the datapath."""
        return self.dram_latency_cycles / max(1, self.dram_outstanding_misses)

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count into wall-clock seconds at the configured clock."""
        return cycles / self.frequency_hz

    def to_record(self) -> dict[str, object]:
        """JSON-safe dict form (used by the :mod:`repro.api` response records)."""
        return asdict(self)

    @classmethod
    def from_record(cls, record: dict) -> "AcceleratorConfig":
        """Inverse of :meth:`to_record`."""
        fields = dict(record)
        dram = fields.pop("dram")
        return cls(dram=DramConfig(**dram), **fields)

    def scaled(self, factor: float) -> "AcceleratorConfig":
        """Return a copy with the on-chip SRAM capacities scaled by ``factor``.

        Used by the benchmark harness: when layer dimensions are scaled down
        to keep the pure-Python simulation tractable, the caches are scaled by
        the same factor so the working-set-to-capacity ratios (and therefore
        miss rates and traffic trends) are preserved.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")

        def scale_pow2(value: int, minimum: int) -> int:
            target = max(minimum, int(value * factor))
            power = 1
            while power * 2 <= target:
                power *= 2
            return power

        line = self.str_cache_line_bytes
        assoc = self.str_cache_associativity
        cache = max(line * assoc, scale_pow2(self.str_cache_bytes, line * assoc))
        psram = max(self.psram_block_bytes * self.psram_banks,
                    scale_pow2(self.psram_bytes, self.psram_block_bytes))
        return replace(self, str_cache_bytes=cache, psram_bytes=psram)


def default_config(**overrides) -> AcceleratorConfig:
    """The Table 5 configuration, optionally overridden field by field."""
    config = AcceleratorConfig()
    if "num_multipliers" in overrides and "num_adders" not in overrides:
        overrides["num_adders"] = overrides["num_multipliers"] - 1
    return replace(config, **overrides) if overrides else config
