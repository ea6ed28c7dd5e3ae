"""NumPy array kernels for the three dataflow walks, in two passes.

Each ``run_*`` function below is the **stream pass** of the corresponding
walk of the test oracle (``ReferenceEngine`` in
``tests/oracles/reference_engine.py``): it consumes a
:class:`~repro.accelerators.engine._LayerContext` and returns a
:class:`StreamRecord` — the walk's exact counts and its per-batch integer
terms — without reading any of the :data:`PRICING_FIELDS`.  :func:`price`,
the **pricing pass**, turns a record and those fields into the layer's
statistics, traffic, DRAM counters, PSRAM spills and cycle counts,
**identical** to the oracle's (see the package docstring for the fidelity
contract).  The kernels operate directly on the CSR/CSC storage arrays
(``pointers`` / ``indices``), replace the per-element cache walk with the
streaming-cache model of :mod:`repro.engine_vec.cache_model` (compulsory
misses when the streaming operand fits the cache, the batched LRU model
otherwise), and the pricing pass computes per-batch cycle terms as float64
arrays that are then accumulated in the walk's iteration order so the
floating-point sums match bit for bit.  The Outer Product and Gustavson
passes walk A in blocks of at most :data:`_BLOCK` stored elements, carrying
the streaming cache's state across, so their memory follows a block, not a
layer.  The sizes of C's rows and columns
and of Gustavson's partial fibers come from :func:`grouped_union_counts`,
in NumPy alone: dense fibers are OR-ed as 64-bit coordinate sets, sparse
ones deduplicated as sorted keys.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.arch.memory.dram import DramTrafficCounter
from repro.dataflows.stats import DataflowStats
from repro.engine_vec.cache_model import (
    CacheStats,
    expand_spans,
    fiber_line_spans,
    first_touch_misses,
    lru_hits,
    lru_resident,
)
from repro.metrics.results import TrafficBreakdown

#: The :class:`~repro.arch.config.AcceleratorConfig` fields only the
#: pricing pass reads.  No stream pass reads them, so design points that
#: differ in nothing else share one :class:`StreamRecord`; every other field
#: keys the record.
PRICING_FIELDS = frozenset(
    {
        "distribution_bandwidth",
        "reduction_bandwidth",
        "dram",
        "frequency_hz",
        "dram_outstanding_misses",
        "psram_bytes",
    }
)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def ordered_sum(values: np.ndarray, initial: float = 0.0) -> float:
    """Sum ``values`` left to right, one float add at a time.

    ``np.sum`` uses pairwise accumulation, which is *not* bit-identical to
    the reference engine's sequential ``+=`` loop; ``np.add.accumulate``
    adds in exactly that order, so its last partial sum is the loop's total.
    """
    terms = np.empty(len(values) + 1, dtype=np.float64)
    terms[0] = initial
    terms[1:] = values
    return float(np.add.accumulate(terms)[-1])


def grouped_union_counts(
    b_indices: np.ndarray,
    b_pointers: np.ndarray,
    ks: np.ndarray,
    groups: np.ndarray,
    num_groups: int,
    minor_dim: int,
    *,
    minor_counts: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Distinct minor coordinates of ``union(B[k, :] for k in group)`` per group.

    ``ks`` lists B fibers in group-major order (``groups`` must be
    non-decreasing, and a group may list a fiber twice); the result is
    exact — equivalent to ``len(np.unique(concatenate(fiber coords)))`` per
    group, ``int64``, 0 for a group no ``k`` belongs to.

    With ``minor_counts`` the result is ``(per_group, per_minor)``, where
    ``per_minor[c]`` is the number of groups whose union holds coordinate
    ``c``: the column counts of the structural product (selector x B).

    The call's own sizes pick one of two exact paths
    (:data:`_PAIR_COST_IN_WORDS`): fibers dense enough are OR-ed as
    64-coordinate bitsets and their bits counted (:func:`_word_unions`);
    sparser ones are deduplicated as sorted ``(group, coordinate)`` keys
    (:func:`_pair_unions`).  Either walks consecutive whole groups in
    blocks of at most :data:`_UNION_BLOCK` words or keys, so, beyond the
    word path's bitsets of B's fibers, memory follows a block, not the call.
    """
    per_group = np.zeros(num_groups, dtype=np.int64)
    per_minor = np.zeros(minor_dim, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    fiber_nnz = b_pointers[ks + 1] - b_pointers[ks]
    pairs = int(fiber_nnz.sum())
    if pairs:
        groups = np.asarray(groups, dtype=np.int64)
        # Every group present: its first position in ``ks``, then the end.
        bounds = np.flatnonzero(np.concatenate(([True], groups[1:] != groups[:-1])))
        gids = groups[bounds]
        bounds = np.append(bounds, len(ks))
        words = -(-minor_dim // 64)
        members = per_minor if minor_counts else None
        if len(ks) * words <= _PAIR_COST_IN_WORDS * (pairs + len(ks)):
            _word_unions(b_indices, b_pointers, ks, bounds, gids, words, per_group, members)
        else:
            _pair_unions(
                b_indices, b_pointers, ks, fiber_nnz, bounds, gids, minor_dim, per_group, members
            )
    return (per_group, per_minor) if minor_counts else per_group


#: Words or keys one block of :func:`grouped_union_counts` holds (1 MB of
#: ``uint64`` words): consecutive whole groups up to that size, a larger
#: group alone.  Blocks of 2**16 to 2**18 ran fastest, measured on a
#: 20,000-node graph squared and on a 1,024 x 4,096 x 4,096 product; at
#: 2**21 these took 1.3x and 4x as long.
_UNION_BLOCK = 1 << 17

#: What a key of the pair path or a fiber it expands costs, in words of the
#: word path, which takes a call whose words are at most this many times
#: its keys plus fibers.  Measured on a 2-vCPU Xeon with NumPy 2.4 over 105
#: structural products A x B from 512 x 64 x 2 to 2,000 x 2,000 x 2,000: a
#: word costs about 3 ns, a key 14 ns and a fiber 16 ns.  Summed over the
#: products, this rule's choices took 2.4% longer than the faster path on
#: each (at worst 1.4x it, on a 0.05 ms call); ``keys >= words`` took 75%
#: longer, up to 5.5x on one product.
_PAIR_COST_IN_WORDS = 4

#: ``_BIT[c]`` is the bit of coordinate ``c`` within its 64-bit word.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _group_blocks(sizes_prefix: np.ndarray, limit: int):
    """``(first, end)`` runs of consecutive groups whose sizes sum to at
    most ``limit``, a larger group alone; ``sizes_prefix`` holds the
    cumulative size at every group boundary."""
    first, groups = 0, len(sizes_prefix) - 1
    while first < groups:
        end = int(np.searchsorted(sizes_prefix, sizes_prefix[first] + limit, side="right")) - 1
        end = max(end, first + 1)
        yield first, end
        first = end


def _fiber_words(b_indices: np.ndarray, b_pointers: np.ndarray, words: int) -> np.ndarray:
    """Every fiber of B as a row of ``words`` 64-bit coordinate sets.

    Coordinates strictly increase within a fiber (``CompressedMatrix``
    validates it), so each ``(fiber, word)`` cell is one run of stored
    positions, OR-ed with one ``reduceat``.
    """
    fibers = len(b_pointers) - 1
    cells = np.repeat(np.arange(0, fibers * words, words), np.diff(b_pointers))
    cells += b_indices >> 6
    runs = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    bits = np.zeros(fibers * words, dtype=np.uint64)
    bits[cells[runs]] = np.bitwise_or.reduceat(_BIT[b_indices & 63], runs)
    return bits.reshape(fibers, words)


def _word_unions(b_indices, b_pointers, ks, bounds, gids, words, per_group, per_minor) -> None:
    """The bitset path of :func:`grouped_union_counts`: OR each group's
    fiber words, count the bits, and add the members to ``per_minor``."""
    bits = _fiber_words(b_indices, b_pointers, words)
    # The column counts unpack a bounded number of sets at a time, fewer
    # than 2**16, so their uint16 sums cannot wrap.
    step = max(1, _UNION_BLOCK // (64 * words))
    for first, end in _group_blocks(bounds * words, _UNION_BLOCK):
        lo, hi = bounds[first], bounds[end]
        unions = np.bitwise_or.reduceat(bits.take(ks[lo:hi], axis=0), bounds[first:end] - lo)
        per_group[gids[first:end]] = np.bitwise_count(unions).sum(axis=1)
        if per_minor is None:
            continue
        for row in range(0, len(unions), step):
            sets = unions[row : row + step].astype("<u8", copy=False).view(np.uint8)
            flags = np.unpackbits(sets, axis=1, count=len(per_minor), bitorder="little")
            per_minor += flags.sum(axis=0, dtype=np.uint16)


def _pair_unions(
    b_indices, b_pointers, ks, fiber_nnz, bounds, gids, minor_dim, per_group, per_minor
) -> None:
    """The sorted-key path of :func:`grouped_union_counts`: one key
    ``group x minor_dim + coordinate`` per stored coordinate, sorted, and
    each key that differs from its predecessor counted once."""
    pair_prefix = np.concatenate(([0], np.cumsum(fiber_nnz)))
    pair_bounds = pair_prefix[bounds]
    for first, end in _group_blocks(pair_bounds, _UNION_BLOCK):
        lo, hi = bounds[first], bounds[end]
        total = int(pair_bounds[end] - pair_bounds[first])
        if total == 0:
            continue
        # 32-bit keys sort about twice as fast as 64-bit ones.
        key_type = np.uint32 if (end - first) * minor_dim < 1 << 32 else np.int64
        # Stored positions of the block's fibers (``expand_spans`` would also
        # index each key's fiber: 20% slower on a 20,000-node graph).
        positions = np.repeat(
            b_pointers[ks[lo:hi]] - (pair_prefix[lo:hi] - pair_prefix[lo]), fiber_nnz[lo:hi]
        )
        positions += np.arange(total)
        bases = np.arange(0, (end - first + 1) * minor_dim, minor_dim, dtype=key_type)
        keys = np.repeat(bases[:-1], np.diff(pair_bounds[first : end + 1]))
        keys += b_indices[positions].astype(key_type)
        keys.sort()
        distinct = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        per_group[gids[first:end]] = np.diff(np.searchsorted(distinct, bases))
        if per_minor is not None:
            per_minor += np.bincount(distinct % key_type(minor_dim), minlength=minor_dim)


def _flush_dram(counter, stream: str, total: int) -> None:
    """Credit bulk traffic to one DRAM stream, mirroring per-call accounting."""
    setattr(counter.traffic, stream, getattr(counter.traffic, stream) + int(total))


def _cache_stats(accesses: int, misses: int, line_bytes: int) -> CacheStats:
    return CacheStats(
        accesses=accesses,
        hits=accesses - misses,
        misses=misses,
        miss_bytes=misses * line_bytes,
    )


def _copy(counters):
    """A fresh copy of a counter dataclass (``dataclasses.replace``, cheaper)."""
    return type(counters)(**vars(counters))


def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _read_only(*arrays) -> None:
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False


# ----------------------------------------------------------------------
# Stream records and the pricing pass
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpMerge:
    """Outer Product's merging phase as the stream pass leaves it."""

    #: Partial-sum elements written back between the passes of a row.
    merged: int
    #: Merge-tree inputs of every pass, row-major (the oracle loop's order).
    inputs: np.ndarray
    #: PSRAM blocks all partial fibers of the layer need together.
    blocks: int
    #: Bytes of C written off chip after the merge.
    output_bytes: int

    def __post_init__(self) -> None:
        _read_only(self.inputs)

    def price(self, ctx) -> None:
        """Account the whole merging phase into ``ctx``: its counts, the
        output write, the PSRAM spill and the merging cycles."""
        cfg = ctx.config
        total_inputs = int(self.inputs.sum())
        ctx.stats.psum_writes += self.merged
        ctx.stats.psum_reads += total_inputs
        ctx.stats.merge_passes += len(self.inputs)
        ctx.traffic.psum_bytes += (self.merged + total_inputs) * ctx.element_bytes
        merge_cycles = ordered_sum(self.inputs / cfg.reduction_bandwidth + ctx.tree_depth)

        # PSRAM occupancy: all partial fibers of the layer coexist before the
        # merging phase starts; anything beyond the PSRAM capacity spills.
        spill_bytes = max(0, self.blocks - cfg.psram_blocks) * cfg.psram_block_bytes
        if spill_bytes:
            ctx.dram.spill_psums(spill_bytes)
        ctx.dram.write_output(self.output_bytes)
        dram_cycles = (2 * spill_bytes + self.output_bytes) / ctx.dram.bytes_per_cycle
        ctx.cycles.merging += max(merge_cycles, dram_cycles)


@dataclass(frozen=True)
class RowMerges:
    """Gustavson's final merges: one entry per row whose partial fibers went
    through the PSRAM, in row order."""

    #: Partial-sum elements read back from the PSRAM.
    inputs: np.ndarray
    #: Bytes of the row of C written off chip.
    output_bytes: np.ndarray
    #: PSRAM blocks the row's partial fibers occupy.
    blocks: np.ndarray

    def __post_init__(self) -> None:
        _read_only(self.inputs, self.output_bytes, self.blocks)

    def price(self, ctx) -> None:
        """Account the final merges into ``ctx``: their counts, output
        writes, PSRAM spills and merging cycles."""
        cfg = ctx.config
        eb = ctx.element_bytes
        bpc = ctx.dram.bytes_per_cycle
        total_inputs = int(self.inputs.sum())
        ctx.stats.psum_reads += total_inputs
        ctx.traffic.psum_bytes += total_inputs * eb
        ctx.stats.merge_passes += len(self.inputs)
        _flush_dram(ctx.dram, "output_write_bytes", int(self.output_bytes.sum()))
        spill_bytes = np.maximum(0, self.blocks - cfg.psram_blocks) * cfg.psram_block_bytes
        total_spill = int(spill_bytes.sum())
        if total_spill:
            _flush_dram(ctx.dram, "psum_spill_bytes", total_spill)

        # Per row, max(compute, dram) followed by the spill penalty when the
        # row overflowed the PSRAM — interleaved in row order to reproduce
        # the reference's accumulation sequence.
        rows = len(self.inputs)
        merge_main = np.maximum(
            self.inputs / cfg.reduction_bandwidth + ctx.tree_depth, self.output_bytes / bpc
        )
        interleaved = np.empty(2 * rows, dtype=np.float64)
        interleaved[0::2] = merge_main
        interleaved[1::2] = 2 * spill_bytes / bpc
        keep = np.empty(2 * rows, dtype=bool)
        keep[0::2] = True
        keep[1::2] = spill_bytes > 0
        ctx.cycles.merging = ordered_sum(interleaved[keep], ctx.cycles.merging)


@dataclass(frozen=True)
class StreamRecord:
    """What one dataflow walk yields before any pricing field is read.

    Immutable by contract, with read-only arrays: the engine memoizes one
    record per live operand pair, dataflow and stream configuration, and
    every design point that shares them prices the same record.  The
    per-batch arrays hold one entry per stationary batch, in walk order.
    """

    #: Operation counts, on-chip traffic and streaming-cache counters of the
    #: stationary and streaming phases.
    stats: DataflowStats = field(default_factory=DataflowStats)
    traffic: TrafficBreakdown = field(default_factory=TrafficBreakdown)
    cache: CacheStats = field(default_factory=CacheStats)
    #: Their off-chip reads and output writes.
    dram: DramTrafficCounter = field(default_factory=DramTrafficCounter)
    #: Stationary elements loaded per batch.
    sta: np.ndarray = field(default_factory=_empty)
    #: Elements the distribution network delivers per batch (Inner Product
    #: streams the whole streaming operand every batch: one count).
    distributed: np.ndarray | int = field(default_factory=_empty)
    #: Elements the reduction network takes per batch.
    reduced: np.ndarray = field(default_factory=_empty)
    #: Off-chip bytes per batch: cache misses and output writes.
    dram_bytes: np.ndarray = field(default_factory=_empty)
    #: Misses per batch that expose DRAM latency (Gustavson's gathers only).
    exposed_misses: np.ndarray | None = None
    #: Cycles every batch adds on top: the reduction tree's depth or one.
    batch_overhead: int = 1
    #: The merging phase, which prices itself (Outer Product, Gustavson).
    merge: OpMerge | RowMerges | None = None

    def __post_init__(self) -> None:
        _read_only(
            self.sta, self.distributed, self.reduced, self.dram_bytes, self.exposed_misses
        )


def price(record: StreamRecord, ctx) -> None:
    """The pricing pass: fill a fresh ``ctx`` from ``record`` and the
    pricing fields of ``ctx.config``.

    The counters are copies of the record's; the cycles of each phase are
    summed in the walk's order; the merging phase, if any, prices itself.
    """
    cfg = ctx.config
    bpc = ctx.dram.bytes_per_cycle
    ctx.stats = _copy(record.stats)
    ctx.traffic = _copy(record.traffic)
    ctx.cache_stats = _copy(record.cache)
    ctx.dram.traffic = _copy(record.dram)

    sta = record.sta
    ctx.cycles.stationary = ordered_sum(
        np.maximum(sta / cfg.distribution_bandwidth, (sta * ctx.element_bytes) / bpc)
    )
    compute = np.maximum(
        record.distributed / cfg.distribution_bandwidth,
        record.reduced / cfg.reduction_bandwidth,
    )
    dram = record.dram_bytes / bpc
    if record.exposed_misses is not None:
        dram = dram + record.exposed_misses * cfg.exposed_miss_latency_cycles
    ctx.cycles.streaming = ordered_sum(np.maximum(compute, dram) + record.batch_overhead)
    if record.merge is not None:
        record.merge.price(ctx)


#: Stored elements of A one step of the Outer Product and Gustavson stream
#: passes walks, and lines of the LRU trace one :func:`lru_hits` call
#: resolves beyond the lines the cache holds before it.  A step or a call
#: holds a few dozen arrays of this many int64 entries at most, so memory
#: follows a block, not a layer, and the merge tree (:func:`prefix_rank_leq`)
#: runs on cache-sized traces.  The unscaled fig12 (at most 10 layers per
#: model, 2 workers on 2 vCPUs, NumPy 2.4) took 55.5, 31.0, 24.8, 27.3, 29.5
#: and 39.9 s with blocks of 2**12, 2**14, 2**16, 2**18, 2**20 and 2**23;
#: its largest process peaked at 458-521 MB up to 2**20 and at 1,155 MB at
#: 2**23.
_BLOCK = 1 << 16


def _span_misses(
    first_line: np.ndarray,
    line_counts: np.ndarray,
    num_sets: int,
    ways: int,
    resident: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-span misses of the LRU line trace the ``(first_line, count)`` spans
    expand to, in span order, and the lines the cache holds after it.

    The trace starts from a cache holding ``resident`` (least recently used
    first, as :func:`lru_resident` gives them), or from a cold one when
    ``resident`` is None; then no lines are returned either.  It is resolved
    in chunks of at most :data:`_BLOCK` lines, each prefixed with the lines
    the cache holds before it: replayed into a cold cache they rebuild the
    exact LRU state, so the chunk's hits are the ones the whole trace gives.
    """
    total_lines = int(line_counts.sum())
    if resident is None and total_lines <= _BLOCK:
        lines, line_span = expand_spans(first_line, line_counts)
        hits = lru_hits(lines, num_sets, ways)
        return np.bincount(line_span[~hits], minlength=len(line_counts)), None
    held = _empty() if resident is None else resident
    misses = np.zeros(len(line_counts), dtype=np.int64)
    ends = np.cumsum(line_counts)
    for lo in range(0, total_lines, _BLOCK):
        hi = min(lo + _BLOCK, total_lines)
        # The spans overlapping trace positions [lo, hi), clipped to them.
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi, side="left"))
        starts = first_line[first : last + 1].astype(np.int64)
        counts = line_counts[first : last + 1].astype(np.int64)
        skipped = lo - (int(ends[first]) - int(counts[0]))
        starts[0] += skipped
        counts[0] -= skipped
        counts[-1] -= int(ends[last]) - hi
        lines, line_span = expand_spans(starts, counts)
        trace = np.concatenate((held, lines))
        hits = lru_hits(trace, num_sets, ways)[len(held) :]
        misses[first : last + 1] += np.bincount(
            line_span[~hits], minlength=last + 1 - first
        )
        if hi < total_lines or resident is not None:
            held = lru_resident(trace, num_sets, ways)
    return misses, (None if resident is None else held)


def _streaming_fits(ctx) -> bool:
    """Whether the streaming operand's lines fit the streaming cache.

    Its lines are consecutive, so then no set ever maps more than ``ways``
    of them.  The config makes ``sets x ways x line_bytes`` the cache's
    size, so this is also ``nnz x element_bytes <= str_cache_bytes``.
    """
    from repro.accelerators.engine import _lines_for

    cfg = ctx.config
    lines = _lines_for(int(ctx.streaming.nnz), ctx)
    return lines <= cfg.str_cache_sets * cfg.str_cache_associativity


def _touch_misses(ctx, carry: bool):
    """The streaming cache of one stream pass, fed its fiber touches in
    blocks: a function from one block's ``(fibers, nnzs)`` to its per-touch
    misses, called in walk order.

    Touches must exclude empty fibers.  An operand that fits the cache is
    never evicted from, so its touches miss only on lines no earlier touch
    reached (:func:`first_touch_misses`); any other runs the LRU model over
    its expanded line trace (:func:`_span_misses`).  With ``carry`` the
    function keeps, from block to block, the mask of lines reached or the
    lines the cache holds, so any split into blocks gives the misses of the
    whole sequence (LRU's stack property); a pass of one block carries none.
    """
    from repro.accelerators.engine import _lines_for

    cfg = ctx.config
    pointers = ctx.streaming.pointers
    eb, line_bytes = ctx.element_bytes, cfg.str_cache_line_bytes
    if _streaming_fits(ctx):
        reached = None
        if carry:
            reached = np.zeros(_lines_for(int(ctx.streaming.nnz), ctx), dtype=bool)
        return lambda fibers, nnzs: first_touch_misses(fibers, pointers, eb, line_bytes, reached)
    resident = _empty() if carry else None

    def lru_misses(fibers: np.ndarray, nnzs: np.ndarray) -> np.ndarray:
        nonlocal resident
        first_line, line_counts = fiber_line_spans(pointers[fibers], nnzs, eb, line_bytes)
        misses, resident = _span_misses(
            first_line, line_counts, cfg.str_cache_sets, cfg.str_cache_associativity, resident
        )
        return misses

    return lru_misses


def _join(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The blocks' arrays end to end; a lone block's array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


# ----------------------------------------------------------------------
# Inner Product
# ----------------------------------------------------------------------
def pack_fiber_batches(
    pointers: np.ndarray, num_multipliers: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Array form of the oracle's greedy batch loop
    (``_pack_whole_fibers`` in ``tests/oracles/reference_engine.py``).

    Returns ``(entry_m, entry_s, entry_e, entry_b, nb)``: the batches'
    ``(major_index, start, end)`` entries flattened in order, the batch of
    each entry, and the number of batches.  Over the prefix sum of the
    non-empty fiber lengths, a batch starting at fiber ``i`` ends where the
    prefix first exceeds ``prefix[i] + P`` (a fiber longer than the array
    exceeds it alone, so no batch reaches past one), and the walk over
    batch starts takes one step per batch.  Each long fiber becomes
    ``ceil(length / P)`` solo chunks.
    """
    P = num_multipliers
    pointers = np.asarray(pointers, dtype=np.int64)
    lengths = np.diff(pointers)
    fibers = np.flatnonzero(lengths)
    n = len(fibers)
    lengths = lengths[fibers]
    prefix = np.concatenate(([0], np.cumsum(lengths)))
    batch_end = np.searchsorted(prefix, prefix[:-1] + P, side="right") - 1
    step = np.maximum(batch_end, np.arange(1, n + 1)).tolist()
    batch_starts = []
    i = 0
    while i < n:
        batch_starts.append(i)
        i = step[i]
    starts_batch = np.zeros(n, dtype=bool)
    starts_batch[batch_starts] = True

    entries = (lengths + P - 1) // P  # 1 for every fiber that fits the array
    entry_fiber = np.repeat(np.arange(n), entries)
    chunk = np.arange(len(entry_fiber)) - np.repeat(np.cumsum(entries) - entries, entries)
    entry_m = fibers[entry_fiber]
    entry_s = pointers[entry_m] + chunk * P
    entry_e = np.minimum(entry_s + P, pointers[entry_m + 1])
    # A long fiber always starts a batch, so each of its chunks opens one.
    entry_b = np.cumsum(starts_batch[entry_fiber]) - 1
    nb = int(entry_b[-1]) + 1 if n else 0
    return entry_m, entry_s, entry_e, entry_b, nb


def run_inner_product(engine, ctx) -> StreamRecord:
    """Stream pass of the oracle walk ``ReferenceEngine._run_inner_product``."""
    from repro.accelerators.engine import _lines_for

    cfg = engine.config
    a_csr = ctx.a_csr
    b_row_nnz = ctx.b_row_nnz
    eb = ctx.element_bytes
    line_bytes = cfg.str_cache_line_bytes
    snnz = int(ctx.streaming.nnz)
    streaming_lines = _lines_for(snnz, ctx)
    fits_in_cache = _streaming_fits(ctx)

    entry_m, entry_s, entry_e, entry_b, nb = pack_fiber_batches(
        a_csr.pointers, cfg.num_multipliers
    )
    output_elements = int(ctx.c_row_nnz.sum())
    if nb == 0:
        return StreamRecord(stats=DataflowStats(output_elements=output_elements))

    # Effectual multiplications per entry via a prefix sum over the element
    # positions of A (every stored (m, k) meets nnz(B[k, :]) streamed elems).
    mult_prefix = np.concatenate(
        ([0], np.cumsum(b_row_nnz[np.asarray(a_csr.indices, dtype=np.int64)]))
    )
    sta_entry = entry_e - entry_s
    mults_entry = mult_prefix[entry_e] - mult_prefix[entry_s]
    completes = entry_e == a_csr.pointers[entry_m + 1]
    out_entry = np.where(completes, ctx.c_row_nnz[entry_m], 0)

    sta_b = np.zeros(nb, dtype=np.int64)
    np.add.at(sta_b, entry_b, sta_entry)
    mults_b = np.zeros(nb, dtype=np.int64)
    np.add.at(mults_b, entry_b, mults_entry)
    out_b = np.zeros(nb, dtype=np.int64)
    np.add.at(out_b, entry_b, out_entry)
    rows_b = np.bincount(entry_b, minlength=nb)

    # Closed-form cache behaviour: compulsory misses on the first pass, then
    # all hits iff the streaming matrix fits, full thrashing otherwise.
    pass_misses = np.full(
        nb, streaming_lines if not fits_in_cache else 0, dtype=np.int64
    )
    pass_misses[0] = streaming_lines
    total_misses = int(pass_misses.sum())
    miss_bytes_b = pass_misses * line_bytes
    out_bytes_b = out_b * eb

    total_sta = int(sta_b.sum())
    total_mults = int(mults_b.sum())
    return StreamRecord(
        stats=DataflowStats(
            multiplications=total_mults,
            intersection_probes=snnz * int(rows_b.sum()),
            additions=int(np.maximum(0, mults_b - out_b).sum()),
            stationary_elements_read=total_sta,
            streaming_elements_read=snnz * nb,
            output_elements=output_elements,
            stationary_iterations=nb,
        ),
        traffic=TrafficBreakdown(sta_bytes=total_sta * eb, str_bytes=snnz * eb * nb),
        cache=_cache_stats(snnz * nb, total_misses, line_bytes),
        dram=DramTrafficCounter(
            sta_read_bytes=total_sta * eb,
            str_read_bytes=total_misses * line_bytes,
            output_write_bytes=int(out_bytes_b.sum()),
        ),
        sta=sta_b,
        distributed=snnz,
        reduced=out_b,
        dram_bytes=miss_bytes_b + out_bytes_b,
        batch_overhead=ctx.tree_depth,
    )


# ----------------------------------------------------------------------
# Outer Product
# ----------------------------------------------------------------------
def run_outer_product(engine, ctx) -> StreamRecord:
    """Stream pass of the oracle walk ``ReferenceEngine._run_outer_product``.

    A's CSC elements are walked in ranges of whole batches, at most
    :data:`_BLOCK` elements each (one batch at least): every range starts a
    batch, so a batch's touches stay inside one range, and the streaming
    cache carries its state from range to range (:func:`_touch_misses`).
    The merging phase reads A's CSR view
    (:meth:`~repro.accelerators.engine.SpmspmEngine._merge_partial_fibers`).
    """
    cfg = engine.config
    eb = ctx.element_bytes
    line_bytes = cfg.str_cache_line_bytes
    merge = engine._merge_partial_fibers(ctx)
    output_elements = int(ctx.c_row_nnz.sum())
    n = int(ctx.stationary.nnz)
    if n == 0:
        return StreamRecord(stats=DataflowStats(output_elements=output_elements))

    P = cfg.num_multipliers
    nb = -(-n // P)
    sta_b = np.full(nb, P, dtype=np.int64)
    sta_b[-1] = n - (nb - 1) * P
    step = max(1, _BLOCK // P) * P
    starts = range(0, n, step)
    touch_misses = _touch_misses(ctx, carry=len(starts) > 1)
    parts = [_outer_product_range(ctx, lo, min(lo + step, n), touch_misses) for lo in starts]
    streamed_b, mults_b, miss_b = map(_join, zip(*parts))
    accesses = int(streamed_b.sum())  # every touch of a non-empty fiber
    total_misses = int(miss_b.sum())
    total_mults = int(mults_b.sum())

    return StreamRecord(
        stats=DataflowStats(
            multiplications=total_mults,
            psum_writes=total_mults,
            stationary_elements_read=n,
            streaming_elements_read=accesses,
            output_elements=output_elements,
            stationary_iterations=nb,
        ),
        traffic=TrafficBreakdown(
            sta_bytes=n * eb, str_bytes=accesses * eb, psum_bytes=total_mults * eb
        ),
        cache=_cache_stats(accesses, total_misses, line_bytes),
        dram=DramTrafficCounter(
            sta_read_bytes=n * eb, str_read_bytes=total_misses * line_bytes
        ),
        sta=sta_b,
        distributed=streamed_b,
        reduced=mults_b,
        dram_bytes=miss_b * line_bytes,
        merge=merge,
    )


def _outer_product_range(ctx, lo: int, hi: int, touch_misses):
    """A's CSC elements ``[lo, hi)`` of the Outer Product walk, ``lo`` a
    batch start: the streamed elements, multiplications and misses of each
    of its batches."""
    P = ctx.config.num_multipliers
    a_ptr = ctx.stationary.pointers
    n = hi - lo
    # The k of every element: the columns overlapping the range, clipped to it.
    first = int(np.searchsorted(a_ptr, lo, side="right")) - 1
    end = int(np.searchsorted(a_ptr, hi, side="left"))
    counts = np.diff(a_ptr[first : end + 1])
    counts[0] -= lo - a_ptr[first]
    counts[-1] -= a_ptr[end] - hi
    ks = np.repeat(np.arange(first, end, dtype=np.int64), counts)
    batch_starts = np.arange(0, n, P)

    # One fiber touch per distinct k per batch; ks is non-decreasing, so
    # "distinct within batch" is "differs from predecessor or starts a
    # batch", and the touch order matches np.unique's ascending order.
    is_touch = np.empty(n, dtype=bool)
    is_touch[0] = True
    np.not_equal(ks[1:], ks[:-1], out=is_touch[1:])
    is_touch[::P] = True
    touch_at = np.flatnonzero(is_touch)
    touch_k = ks[touch_at]
    touch_b = touch_at // P
    touch_nnz = ctx.streaming_fiber_nnz[touch_k]

    streamed_b = np.zeros(len(batch_starts), dtype=np.int64)
    np.add.at(streamed_b, touch_b, touch_nnz)
    mults_b = np.add.reduceat(ctx.b_row_nnz[ks], batch_starts)

    active = touch_nnz > 0
    miss_per_touch = touch_misses(touch_k[active], touch_nnz[active])
    miss_b = np.zeros(len(batch_starts), dtype=np.int64)
    np.add.at(miss_b, touch_b[active], miss_per_touch)
    return streamed_b, mults_b, miss_b


# ----------------------------------------------------------------------
# Gustavson
# ----------------------------------------------------------------------
def run_gustavson(engine, ctx) -> StreamRecord:
    """Stream pass of the oracle walk ``ReferenceEngine._run_gustavson``.

    A's CSR rows are walked in blocks of whole rows holding at most
    :data:`_BLOCK` stored elements (a longer row alone), so the arrays with
    one entry per element follow a block, not the layer.  Each block numbers
    its chunks from 0, the streaming cache carries its state from block to
    block (:func:`_touch_misses`), and the per-chunk arrays and the final
    merges are joined in row order.
    """
    cfg = engine.config
    eb = ctx.element_bytes
    line_bytes = cfg.str_cache_line_bytes
    a_ptr = ctx.stationary.pointers
    output_elements = int(ctx.c_row_nnz.sum())
    if a_ptr[-1] == 0:
        return StreamRecord(stats=DataflowStats(output_elements=output_elements))

    blocks = list(_group_blocks(a_ptr, _BLOCK))
    touch_misses = _touch_misses(ctx, carry=len(blocks) > 1)
    parts = [_gustavson_block(ctx, first, end, touch_misses) for first, end in blocks]
    *per_chunk, merges = zip(*parts)
    sta_b, streamed_b, miss_b, chunk_out, out_bytes_b = map(_join, per_chunk)
    merges = [rows for rows in merges if rows is not None]
    merge = RowMerges(*map(_join, zip(*merges))) if merges else None

    nchunks = len(sta_b)
    total_sta = int(sta_b.sum())
    total_streamed = int(streamed_b.sum())  # every touch of a non-empty fiber
    total_misses = int(miss_b.sum())
    total_chunk_out = int(chunk_out.sum())
    return StreamRecord(
        stats=DataflowStats(
            multiplications=total_streamed,
            intersection_probes=total_sta,
            psum_writes=total_chunk_out,
            stationary_elements_read=total_sta,
            streaming_elements_read=total_streamed,
            output_elements=output_elements,
            stationary_iterations=nchunks,
            merge_passes=nchunks,
        ),
        traffic=TrafficBreakdown(
            sta_bytes=total_sta * eb,
            str_bytes=total_streamed * eb,
            psum_bytes=total_chunk_out * eb,
        ),
        cache=_cache_stats(total_streamed, total_misses, line_bytes),
        dram=DramTrafficCounter(
            sta_read_bytes=total_sta * eb,
            str_read_bytes=total_misses * line_bytes,
            output_write_bytes=int(out_bytes_b.sum()),
        ),
        sta=sta_b,
        distributed=streamed_b,
        reduced=streamed_b,
        dram_bytes=miss_b * line_bytes + out_bytes_b,
        exposed_misses=miss_b,
        merge=merge,
    )


def _gustavson_block(ctx, first: int, end: int, touch_misses):
    """Rows ``[first, end)`` of the Gustavson walk, chunks numbered from 0.

    Returns the per-chunk stationary elements, streamed elements, misses,
    partial-fiber sizes and output bytes, then the ``RowMerges`` fields of
    the block's rows longer than the array (None if it has none).
    """
    cfg = ctx.config
    b_csr = ctx.streaming
    P = cfg.num_multipliers
    a_ptr = ctx.stationary.pointers
    row_nnz = np.diff(a_ptr[first : end + 1])
    rows = np.flatnonzero(row_nnz)
    row_nnz = row_nnz[rows]
    c_row_nnz = ctx.c_row_nnz[first:end][rows]

    # Chunk layout: each non-empty row is cut into ceil(nnz/P) chunks of up
    # to P stationary scalars, processed row-major (the reference loop order).
    chunks_per_row = (row_nnz + P - 1) // P
    nchunks = int(chunks_per_row.sum())
    chunk_row = np.repeat(np.arange(len(rows)), chunks_per_row)
    chunk_pos = np.arange(nchunks, dtype=np.int64) - np.repeat(
        np.cumsum(chunks_per_row) - chunks_per_row, chunks_per_row
    )
    sta_b = np.minimum(row_nnz[chunk_row] - chunk_pos * P, P)
    multi_b = row_nnz[chunk_row] > P  # chunk belongs to a multi-chunk row

    # Every stored element of A is one fiber touch, in storage order; its
    # chunk is derived from the chunk sizes directly.
    elem_chunk = np.repeat(np.arange(nchunks, dtype=np.int64), sta_b)
    ks = ctx.stationary.indices[a_ptr[first] : a_ptr[end]]
    touch_nnz = ctx.b_row_nnz[ks]

    chunk_bounds = np.concatenate(([0], np.cumsum(sta_b)))
    nnz_prefix = np.concatenate(([0], np.cumsum(touch_nnz)))
    # Every streamed element is multiplied once: one array for both networks.
    streamed_b = nnz_prefix[chunk_bounds[1:]] - nnz_prefix[chunk_bounds[:-1]]

    active = touch_nnz > 0
    miss_per_touch = touch_misses(ks[active], touch_nnz[active])
    miss_b = np.zeros(nchunks, dtype=np.int64)
    np.add.at(miss_b, elem_chunk[active], miss_per_touch)

    # Per-chunk output unions of the multi-chunk rows (the partial fibers
    # written to / merged from the PSRAM); single-chunk rows write C rows
    # straight out.
    chunk_out = np.zeros(nchunks, dtype=np.int64)
    multi_elems = multi_b[elem_chunk]
    if np.any(multi_elems):
        chunk_out += grouped_union_counts(
            b_csr.indices,
            b_csr.pointers,
            ks[multi_elems],
            elem_chunk[multi_elems],
            nchunks,
            b_csr.minor_dim,
        )
    out_bytes_b = np.where(multi_b, 0, c_row_nnz[chunk_row]) * ctx.element_bytes

    # Final merge of the per-chunk partial fibers of every multi-chunk row.
    merges = None
    if np.any(multi_b):
        multi_row = row_nnz > P
        row_first_chunk = np.concatenate(([0], np.cumsum(chunks_per_row)))
        starts = row_first_chunk[:-1][multi_row]
        ends = row_first_chunk[1:][multi_row]
        out_prefix = np.concatenate(([0], np.cumsum(chunk_out)))
        # PSRAM occupancy per row: blocks of every chunk's partial fiber.
        blocks_per_chunk = np.ceil(chunk_out / cfg.psram_elements_per_block).astype(np.int64)
        blocks_prefix = np.concatenate(([0], np.cumsum(blocks_per_chunk)))
        merges = (
            out_prefix[ends] - out_prefix[starts],
            c_row_nnz[multi_row] * ctx.element_bytes,
            blocks_prefix[ends] - blocks_prefix[starts],
        )
    return sta_b, streamed_b, miss_b, chunk_out, out_bytes_b, merges
