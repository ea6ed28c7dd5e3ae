"""Streaming-matrix cache (Section 3.4, "Memory structure for the streaming matrix").

The streaming matrix has the most heterogeneous access pattern of the three
operands: IP re-streams the whole matrix once per stationary batch, OP reads
every fiber exactly once and sequentially, and Gustavson gathers fibers in an
irregular, data-dependent order.  To absorb the worst case the paper backs the
streaming operand with a read-only set-associative cache that operates on a
*virtual address space relative to the beginning of the streaming matrix*
(shorter tags, less bandwidth).

The class below is an exact behavioural model: every element access is mapped
to a relative line address, looked up in the proper set, and either hits or
misses (allocating with LRU replacement).  It is the cache model of the test
oracle :class:`oracles.reference_engine.ReferenceEngine`; the engine
computes the same hits for a whole trace at once
(:mod:`repro.engine_vec.cache_model`), and those misses produce the Fig. 15
miss rates and the Fig. 16 off-chip traffic.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.engine_vec.cache_model import CacheStats


class StreamingCache:
    """Read-only set-associative cache with LRU replacement.

    Parameters
    ----------
    capacity_bytes:
        Total data capacity.
    line_bytes:
        Cache line (block) size in bytes.
    associativity:
        Ways per set.
    banks:
        Number of banks (does not change hit/miss behaviour, but bounds how
        many concurrent reads per cycle the accelerator model may assume).
    element_bytes:
        Size of one matrix element, used by :meth:`access_element`.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int,
        associativity: int,
        banks: int = 1,
        element_bytes: int = 4,
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if capacity_bytes % line_bytes:
            raise ValueError("capacity must be a multiple of the line size")
        num_lines = capacity_bytes // line_bytes
        if num_lines % associativity:
            raise ValueError("number of lines must be a multiple of the associativity")
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.banks = banks
        self.element_bytes = element_bytes
        self.num_sets = num_lines // associativity
        # Each set is an OrderedDict of line_tag -> None, most recent last,
        # built on the first probe: Inner Product walks never probe, and a
        # DSE geometry can have thousands of sets.
        self._sets: list[OrderedDict] | None = None
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.num_sets * self.associativity

    # ------------------------------------------------------------------
    def access_element(self, element_offset: int) -> bool:
        """Access the element at ``element_offset`` within the streaming matrix.

        The offset is *relative to the start of the streaming matrix* (the
        virtual address space of the paper).  Returns True on a hit.
        """
        return self.access_byte(element_offset * self.element_bytes)

    def access_byte(self, byte_offset: int) -> bool:
        """Access one byte address (relative).  Returns True on a hit."""
        if byte_offset < 0:
            raise ValueError("byte offset must be non-negative")
        line_addr = byte_offset // self.line_bytes
        if self._sets is None:
            self._sets = [OrderedDict() for _ in range(self.num_sets)]
        ways = self._sets[line_addr % self.num_sets]
        self.stats.accesses += 1
        if line_addr in ways:
            ways.move_to_end(line_addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self.stats.miss_bytes += self.line_bytes
        ways[line_addr] = None
        if len(ways) > self.associativity:
            ways.popitem(last=False)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingCache({self.capacity_bytes}B, line={self.line_bytes}B, "
            f"{self.associativity}-way, sets={self.num_sets})"
        )
