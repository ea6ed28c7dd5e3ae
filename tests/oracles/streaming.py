"""Tile filler / tile reader for the streaming operand (STR in Fig. 11).

The streaming operand sits behind the set-associative L1 cache and is
addressed in a virtual address space relative to the beginning of the matrix.
The reader below resolves fiber indices to element-offset ranges (using the
compressed pointer vector, exactly as the Fig. 11 pseudo-code does with
``p_B``) and drives the cache model for every element the dataflow touches.
"""

from __future__ import annotations

from dataclasses import dataclass

from oracles.cache import StreamingCache
from repro.sparse.formats import CompressedMatrix


@dataclass
class StreamingReadStats:
    """Counters for the streaming-operand reader."""

    fiber_reads: int = 0
    elements_read: int = 0


class StreamingTileReader:
    """Reads fibers of the streaming operand through the L1 streaming cache."""

    def __init__(self, matrix: CompressedMatrix, cache: StreamingCache) -> None:
        self.matrix = matrix
        self.cache = cache
        self.stats = StreamingReadStats()

    # ------------------------------------------------------------------
    def fiber_nnz(self, fiber_index: int) -> int:
        """Length of the requested fiber without touching the cache."""
        return self.matrix.fiber_nnz(fiber_index)

    def fiber_offset(self, fiber_index: int) -> int:
        """Element offset of the fiber's first element within the matrix storage."""
        return int(self.matrix.pointers[fiber_index])

    def touch_fiber(self, fiber_index: int) -> int:
        """Drive the cache for one fiber read; return its misses.

        Consecutive elements of a fiber share cache lines, so the cache is
        probed once per distinct line while the per-element accesses are
        still accounted in the hit/miss statistics (a line hit serves every
        element in it).  The walk already holds the fiber's contents; only
        the cache behaviour matters.
        """
        nnz = self.matrix.fiber_nnz(fiber_index)
        if nnz == 0:
            return 0
        misses = self._access_span(self.fiber_offset(fiber_index), nnz)
        self.stats.fiber_reads += 1
        self.stats.elements_read += nnz
        return misses

    # ------------------------------------------------------------------
    def _access_span(self, start_element: int, num_elements: int) -> int:
        """Access ``num_elements`` consecutive elements, probing each line once."""
        cache = self.cache
        start_byte = start_element * cache.element_bytes
        end_byte = (start_element + num_elements) * cache.element_bytes - 1
        first_line = start_byte // cache.line_bytes
        last_line = end_byte // cache.line_bytes
        misses = 0
        for line in range(first_line, last_line + 1):
            if not cache.access_byte(line * cache.line_bytes):
                misses += 1
        # The per-line probes above under-count accesses relative to the
        # per-element view the paper reports miss rates against; credit the
        # remaining element accesses as hits on the already-resident line.
        extra_accesses = num_elements - (last_line - first_line + 1)
        if extra_accesses > 0:
            cache.stats.accesses += extra_accesses
            cache.stats.hits += extra_accesses
        return misses
