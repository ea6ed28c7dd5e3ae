"""Batched, exact set-associative LRU model of the streaming cache.

The engine's kernels resolve a layer's whole line-address trace at once
with NumPy, using the classic stack-distance characterisation of LRU:

    an access to line ``t`` hits iff ``t`` has been accessed before and the
    number of **distinct** lines of the same set accessed since ``t``'s
    previous access is smaller than the associativity ``W``.

Counting those distinct reuse intervals is reduced to an order-statistics
problem.  Arrange the trace set-major (stable sort by set index, so each
set's accesses stay in program order and occupy a contiguous block).  Let
``p[i]`` be the position of the previous access to the same line (``-1`` for
first accesses).  Because every position ``j <= p[i]`` trivially satisfies
``p[j] < j <= p[i]``, and every position inside the reuse window
``(p[i], i)`` belongs to the same set block, the distinct count is

    ``C[i] = #{j < i : p[j] <= p[i]} - (p[i] + 1)``

— the number of *window-first* occurrences inside the reuse interval.  The
prefix rank ``H[i] = #{j < i : p[j] <= p[i]}`` is computed for all positions
simultaneously with a bottom-up merge tree: at each level, elements in a
right-hand block count their peers in the left sibling block with one
segmented ``searchsorted``.  The whole trace therefore costs
``O(n log^2 n)`` NumPy work with no per-access Python.

A trace too long for one call is resolved in chunks: :func:`lru_resident`
gives the lines the cache holds after a chunk, and replaying them ahead of
the next chunk rebuilds the exact LRU state (LRU keeps each set's ``W``
most recently used lines).  The result is *identical* to replaying the
trace through the test oracle's per-line
:class:`~repro.arch.memory.cache.StreamingCache`
(``tests/test_engine_equivalence.py`` cross-checks random traces, whole and
chunked).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.formats import stable_order


@dataclass
class CacheStats:
    """Hit/miss counters of the streaming cache over one layer."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: Bytes fetched from DRAM on misses.  Updated by whoever produces the
    #: miss counts: the kernels from the batched hits (and Inner Product's
    #: closed-form passes), the oracle's per-line cache probe by probe.
    miss_bytes: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when there were no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit."""
        return 1.0 - self.miss_rate if self.accesses else 0.0


def prefix_rank_leq(values: np.ndarray) -> np.ndarray:
    """``H[i] = #{j < i : values[j] <= values[i]}`` for every position ``i``.

    ``values`` must be a 1-D int64 array with entries in ``[-1, len(values))``
    (the range previous-occurrence indices live in).
    """
    n = len(values)
    rank = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return rank
    # Shift into [0, n] so block offsets can be encoded multiplicatively.
    vals = values.astype(np.int64) + 1
    sentinel = np.int64(n + 1)  # greater than every real value and query
    mult = np.int64(n + 2)
    npow = 1 << (n - 1).bit_length()
    buf = np.full(npow, sentinel, dtype=np.int64)
    buf[:n] = vals
    pos = np.arange(n, dtype=np.int64)
    # Level of size-1 blocks: each odd position counts its left neighbour.
    odd = np.arange(1, n, 2)
    rank[odd] += vals[odd - 1] <= vals[odd]
    size = 2
    while size < npow:
        nblocks = npow // size
        # Only left (even) siblings are ever searched, so only they are
        # sorted.  Encoding the sibling-pair id into the values lets one
        # global searchsorted perform an independent binary search per block.
        left_sorted = np.sort(buf.reshape(nblocks, size)[0::2], axis=1)
        encoded = (
            left_sorted + (np.arange(nblocks // 2, dtype=np.int64) * mult)[:, None]
        ).ravel()
        block = pos // size
        right = (block & 1) == 1
        pair = block[right] // 2
        queries = vals[right] + pair * mult
        inserted = np.searchsorted(encoded, queries, side="right")
        rank[right] += inserted - pair * size
        size *= 2
    return rank


def lru_hits(lines: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Hit/miss outcome of an ordered line-address trace, as a bool array.

    Exactly equivalent to probing ``lines`` one by one against a cold
    set-associative LRU cache with ``num_sets`` sets and ``associativity``
    ways (set index = line address modulo ``num_sets``), but computed for the
    whole trace at once.
    """
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    lines = np.asarray(lines, dtype=np.int64)
    # Set-major, time-stable arrangement: accesses of one set are contiguous
    # and in program order.  LRU state is per set, so accesses to different
    # sets commute and this reordering preserves every hit/miss outcome.
    order = stable_order(lines % num_sets, num_sets)
    trace = lines[order]
    hits = np.empty(n, dtype=bool)
    hits[order] = _hits_setmajor(trace, num_sets, associativity)
    return hits


def lru_resident(lines: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Lines a cold LRU cache holds after ``lines``, least recently used first.

    Per set, the ``associativity`` most recently used distinct lines (the
    stack property of LRU).  Replayed in the returned order into a cold
    cache, they rebuild each set's contents and recency order exactly.
    """
    lines = np.asarray(lines, dtype=np.int64)
    # The first occurrence in the reversed trace is a line's last use.
    distinct, from_end = np.unique(lines[::-1], return_index=True)
    recent_first = distinct[np.argsort(from_end)]
    sets = recent_first % num_sets
    by_set = stable_order(sets, num_sets)  # per set, most recent first
    set_sizes = np.bincount(sets, minlength=num_sets)
    set_start = np.cumsum(set_sizes) - set_sizes
    rank = np.empty(len(recent_first), dtype=np.int64)
    rank[by_set] = np.arange(len(by_set)) - set_start[sets[by_set]]
    return recent_first[rank < associativity][::-1]


def _hits_setmajor(trace: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Hits for a set-major-ordered trace (helper of :func:`lru_hits`)."""
    n = len(trace)
    prev = _previous_occurrence(trace)
    hits = prev >= 0
    # A set whose distinct working set fits its ways never evicts, so every
    # non-first access hits — only overflowing sets need stack distances.
    first_lines = trace[prev < 0]
    distinct_per_set = np.bincount(first_lines % num_sets, minlength=num_sets)
    if int(distinct_per_set.max()) <= associativity:
        return hits
    over = distinct_per_set[trace % num_sets] > associativity
    sub_trace = trace[over]
    # Dropping the accesses of other (whole) sets leaves each remaining
    # set's subsequence intact, so reuse windows are unchanged.
    sub_prev = _previous_occurrence(sub_trace)
    distinct_between = prefix_rank_leq(sub_prev) - sub_prev - 1
    hits[over] = (sub_prev >= 0) & (distinct_between < associativity)
    return hits


def _previous_occurrence(trace: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same line (-1 for first accesses).

    Equal line addresses imply equal sets, so sorting by address groups
    repeat accesses while the stable order keeps them chronological.
    """
    n = len(trace)
    by_line = stable_order(trace, int(trace.max()) + 1 if n else 0)
    grouped = trace[by_line]
    prev = np.full(n, -1, dtype=np.int64)
    same = grouped[1:] == grouped[:-1]
    prev[by_line[1:][same]] = by_line[:-1][same]
    return prev


def expand_spans(
    first_line: np.ndarray, line_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-span ``(first_line, count)`` pairs into a flat line trace.

    Returns ``(lines, span_of_line)`` where ``span_of_line[i]`` is the index
    of the span the ``i``-th line access belongs to.
    """
    counts = np.asarray(line_counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    span_of_line = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    lines = np.repeat(np.asarray(first_line, dtype=np.int64), counts) + offsets
    return lines, span_of_line


def fiber_line_spans(
    start_elements: np.ndarray,
    element_counts: np.ndarray,
    element_bytes: int,
    line_bytes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-fiber-touch ``(first_line, line_count)`` arrays.

    A touch of ``count`` consecutive elements starting at element offset
    ``start`` probes every line from the one holding its first byte to the
    one holding its last byte; touches with zero elements probe no lines.
    The oracle's per-line reader
    (:meth:`repro.arch.controllers.streaming.StreamingTileReader._access_span`)
    probes the same lines one at a time.
    """
    starts = np.asarray(start_elements, dtype=np.int64)
    counts = np.asarray(element_counts, dtype=np.int64)
    first_line = (starts * element_bytes) // line_bytes
    last_byte = (starts + counts) * element_bytes - 1
    line_counts = np.where(counts > 0, last_byte // line_bytes - first_line + 1, 0)
    return first_line, line_counts
