"""Exact set-associative LRU model of the streaming cache, in two regimes.

The engine's kernels resolve all of a layer's fiber touches against the
streaming cache at once, with NumPy and no per-access Python.  Which of two
exact paths they take follows from the streaming operand and the cache
alone:

* **The operand fits** (its ``L`` lines number at most ``sets x ways``).
  An operand's lines are consecutive, so no set ever maps more than
  ``ceil(L / sets) <= ways`` of them and nothing is ever evicted: an access
  misses exactly when no earlier access reached its line.
  :func:`first_touch_misses` counts those compulsory misses per touch from
  the touched fibers' line ranges, in ``O(touches + L)``, with no line
  trace and no sort.

* **It does not fit.**  The touches expand into a line-address trace, and
  :func:`lru_hits` resolves it with the classic stack-distance
  characterisation of LRU (Mattson et al., 1970):

      an access to line ``t`` hits iff ``t`` has been accessed before and
      the number of **distinct** lines of the same set accessed since
      ``t``'s previous access is smaller than the associativity ``W``.

  Counting those distinct reuse intervals is reduced to an
  order-statistics problem.  Arrange the trace set-major (stable sort by
  set index, so each set's accesses stay in program order and occupy a
  contiguous block).  Let ``p[i]`` be the position of the previous access
  to the same line (``-1`` for first accesses).  Because every position
  ``j <= p[i]`` trivially satisfies ``p[j] < j <= p[i]``, and every
  position inside the reuse window ``(p[i], i)`` belongs to the same set
  block, the distinct count is

      ``C[i] = #{j < i : p[j] <= p[i]} - (p[i] + 1)``

  — the number of *window-first* occurrences inside the reuse interval.
  Only sets whose distinct lines outnumber their ways need it.  The prefix
  rank ``H[i] = #{j < i : p[j] <= p[i]}`` comes from a bottom-up merge tree
  (:func:`prefix_rank_leq`) that carries each level's sorted blocks
  forward: a level is one stable merge of sibling runs, in which every
  element of a right-hand run gains the left-run elements placed before
  it.  The ``ceil(log2 n)`` levels cost ``O(n log n)`` in all.

A trace too long for one call is resolved in chunks: :func:`lru_resident`
gives the lines the cache holds after a chunk, and replaying them ahead of
the next chunk rebuilds the exact LRU state (LRU keeps each set's ``W``
most recently used lines).  Either path is *identical* to replaying the
trace through the test oracle's per-line ``StreamingCache`` in
``tests/oracles/cache.py`` (``tests/test_engine_equivalence.py``
cross-checks random traces, whole and chunked, and operands on both sides
of the fits boundary).
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


def prefix_rank_leq(values: np.ndarray) -> np.ndarray:
    """``H[i] = #{j < i : values[j] <= values[i]}`` for every position ``i``.

    ``values`` must be a 1-D integer array shorter than ``2**31``, with
    entries in ``[-1, len(values))`` (the range previous-occurrence indices
    live in).

    A bottom-up merge tree over aligned blocks of ``1, 2, 4, ...``
    positions, with no padding.  Each level's blocks stay sorted by value
    (ties in position order), and the next level merges sibling pairs with
    one stable argsort of ``(pair, value)`` keys: those keys are already
    sorted runs, so the sort merges them instead of sorting again.  An
    element from the right run of its pair gains the left-run elements the
    merge puts before it: its left sibling's values ``<=`` its own.
    """
    n = len(values)
    rank = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return rank
    value_bits = n.bit_length()  # values + 1 lie in [0, n]
    slot = np.arange(n, dtype=np.int64)
    # Per slot of the sorted blocks: the ``pair << value_bits | value`` key,
    # and the original position (high half) beside the rank so far (low half).
    key = np.add(values, 1, dtype=np.int64)
    carried = slot << 32
    gain = np.empty(n, dtype=np.int64)
    size, level = 1, 0
    while size < n:
        key &= (1 << value_bits) - 1
        np.right_shift(slot, level + 1, out=gain)
        gain <<= value_bits
        key |= gain
        source = np.argsort(key, kind="stable")  # merged slot -> slot it came from
        key = key[source]
        carried = carried[source]
        # Merged offset minus offset in the right run: the left-run elements
        # before it.  Only elements from a right run (bit ``level`` of their
        # slot) gain them.
        np.subtract(slot, source, out=gain)
        gain += size
        source >>= level
        source &= 1
        gain *= source
        carried += gain
        size <<= 1
        level += 1
    rank[carried >> 32] = carried & 0xFFFFFFFF
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
    tags, sets = np.divmod(lines[order], num_sets)
    hits = np.empty(n, dtype=bool)
    hits[order] = _hits_setmajor(tags, sets, num_sets, associativity)
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


def _hits_setmajor(
    tags: np.ndarray, sets: np.ndarray, num_sets: int, associativity: int
) -> np.ndarray:
    """Hits of a set-major trace given as its lines' ``(tag, set)`` pairs
    (helper of :func:`lru_hits`)."""
    prev = _previous_occurrence(tags, sets)
    hits = prev >= 0
    # A set whose distinct working set fits its ways never evicts, so every
    # non-first access hits — only overflowing sets need stack distances.
    distinct_per_set = np.bincount(sets[~hits], minlength=num_sets)
    if int(distinct_per_set.max()) <= associativity:
        return hits
    over = distinct_per_set[sets] > associativity
    # Dropping the accesses of other (whole) sets leaves each remaining
    # set's subsequence intact, so reuse windows are unchanged; previous
    # occurrences move to their positions in the sub-trace.
    sub_prev = prev[over]
    reused = sub_prev >= 0
    sub_prev[reused] = (np.cumsum(over) - 1)[sub_prev[reused]]
    del prev  # the merge tree's temporaries are the peak
    distinct_between = prefix_rank_leq(sub_prev)
    distinct_between -= sub_prev + 1
    hits[over] = reused & (distinct_between < associativity)
    return hits


def _previous_occurrence(tags: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same line (-1 for first accesses)
    in a set-major trace.

    A stable sort by tag keeps the set-major order within each tag, so one
    line's accesses (one tag, one set) end up adjacent and chronological.
    Tags span ``num_sets`` times fewer values than lines, so the sort is a
    16-bit radix sort whenever fewer than ``2**16`` tags occur.
    """
    by_line = stable_order(tags, int(tags.max()) + 1)
    grouped = tags[by_line]
    same = grouped[1:] == grouped[:-1]
    grouped = sets[by_line]
    same &= grouped[1:] == grouped[:-1]
    prev = np.full(len(tags), -1, dtype=np.int64)
    prev[by_line[1:][same]] = by_line[:-1][same]
    return prev


def first_touch_misses(
    fibers: np.ndarray, pointers: np.ndarray, element_bytes: int, line_bytes: int
) -> np.ndarray:
    """Per-touch misses of a cache that holds the whole operand.

    ``fibers`` is an ordered sequence of touches of non-empty fibers of a
    compressed operand with ``pointers``.  Nothing is ever evicted, so a
    touch misses on the lines of its fiber that no earlier touch reached:
    each line is charged to its first toucher.  Exact whenever the
    operand's lines fit the cache (see the module docstring).
    """
    touches = len(fibers)
    if touches == 0:
        return np.zeros(0, dtype=np.int64)
    # Each fiber's first touch; ``touches`` for fibers never touched.
    first = np.full(len(pointers) - 1, touches, dtype=np.int64)
    np.minimum.at(first, fibers, np.arange(touches, dtype=np.int64))
    touched = np.flatnonzero(first < touches)
    # The lines of each touched fiber (as :func:`fiber_line_spans` maps
    # them), one entry per line, in storage order.  Lines never decrease
    # along it, and a fiber that starts on the line its predecessor ends on
    # shares that line: its entry continues the line instead of opening one.
    first_line = pointers[touched] * element_bytes // line_bytes
    last_line = (pointers[touched + 1] * element_bytes - 1) // line_bytes
    line_counts = last_line - first_line + 1
    owner = np.repeat(first[touched], line_counts)
    new_line = np.ones(len(owner), dtype=bool)
    fiber_start = np.cumsum(line_counts) - line_counts
    new_line[fiber_start[1:]] = first_line[1:] != last_line[:-1]
    first_toucher = np.minimum.reduceat(owner, np.flatnonzero(new_line))
    return np.bincount(first_toucher, minlength=touches)


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
    The oracle's per-line reader (``StreamingTileReader._access_span`` in
    ``tests/oracles/streaming.py``) probes the same lines one at a time.
    """
    starts = np.asarray(start_elements, dtype=np.int64)
    counts = np.asarray(element_counts, dtype=np.int64)
    first_line = (starts * element_bytes) // line_bytes
    last_byte = (starts + counts) * element_bytes - 1
    line_counts = np.where(counts > 0, last_byte // line_bytes - first_line + 1, 0)
    return first_line, line_counts
