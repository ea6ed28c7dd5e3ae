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
floating-point sums match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

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
    non-decreasing); the result is exact — equivalent to
    ``len(np.unique(concatenate(fiber coords)))`` per group.  The count is
    the structural row-nnz of a SciPy spgemm (selector matrix x B).

    With ``minor_counts`` the result is ``(per_group, per_minor)``, where
    ``per_minor[c]`` is the number of groups whose union holds coordinate
    ``c``: the column counts of the same structural product.
    """
    nk = len(ks)
    if nk == 0 or minor_dim == 0:
        out = np.zeros(num_groups, dtype=np.int64)
        return (out, np.zeros(minor_dim, dtype=np.int64)) if minor_counts else out
    ks = np.asarray(ks, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    k_dim = len(b_pointers) - 1
    indptr = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=num_groups))))
    selector = sparse.csr_matrix(
        (np.ones(nk, dtype=np.int64), ks, indptr), shape=(num_groups, k_dim)
    )
    b_struct = sparse.csr_matrix(
        (np.ones(len(b_indices), dtype=np.int64), b_indices, b_pointers),
        shape=(k_dim, minor_dim),
    )
    # The product's sparsity structure is the per-group union of B fibers
    # (scipy's symbolic pass; explicit zeros are never produced since all
    # inputs are positive), so indptr differences are the distinct counts.
    product = selector @ b_struct
    out = np.diff(product.indptr).astype(np.int64)
    if minor_counts:
        return out, np.bincount(product.indices, minlength=minor_dim).astype(np.int64)
    return out


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


#: Upper bound on the line-address trace one :func:`lru_hits` call resolves,
#: in int64 entries.  Besides the expanded lines and their span indices, a
#: call holds up to about a dozen trace-sized int64 arrays at once: the
#: set-major order, tags and sets; the sub-trace's previous occurrences;
#: and the merge tree's slots, keys, carried ranks, gains, sort order and
#: one gathered copy.  So the cap bounds *peak* memory, not just the trace:
#: one call on a 2**23-line trace with every set over-full measured 0.72 GB
#: above the process before it (NumPy 2.4, 2 vCPUs).  A longer trace, as
#: unscaled (REPRO_FULL_SCALE) layers can produce, is resolved in chunks of
#: at most this many lines with the same hits (see :func:`_span_misses`).
_MAX_TRACE_LINES = 1 << 23


def _span_misses(
    first_line: np.ndarray, line_counts: np.ndarray, num_sets: int, ways: int
) -> np.ndarray:
    """Per-span misses of the LRU line trace the ``(first_line, count)`` spans
    expand to, in span order, starting from a cold cache.

    The trace is resolved by the batched LRU model, in one call when it fits
    :data:`_MAX_TRACE_LINES` and in chunks of that many lines otherwise.
    Each chunk is prefixed with the lines the cache holds after the previous
    one (:func:`lru_resident`): replayed into a cold cache they rebuild the
    exact LRU state, so the chunk's hits are the ones the whole trace gives.
    """
    total_lines = int(line_counts.sum())
    if total_lines <= _MAX_TRACE_LINES:
        lines, line_span = expand_spans(first_line, line_counts)
        hits = lru_hits(lines, num_sets, ways)
        return np.bincount(line_span[~hits], minlength=len(line_counts))
    misses = np.zeros(len(line_counts), dtype=np.int64)
    ends = np.cumsum(line_counts)
    resident = np.zeros(0, dtype=np.int64)
    for lo in range(0, total_lines, _MAX_TRACE_LINES):
        hi = min(lo + _MAX_TRACE_LINES, total_lines)
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
        trace = np.concatenate((resident, lines))
        hits = lru_hits(trace, num_sets, ways)[len(resident) :]
        misses[first : last + 1] += np.bincount(
            line_span[~hits], minlength=last + 1 - first
        )
        resident = lru_resident(trace, num_sets, ways)
    return misses


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


def _fiber_touch_misses(ctx, cfg, fibers: np.ndarray, nnzs: np.ndarray) -> np.ndarray:
    """Per-touch streaming-cache misses for an ordered fiber-touch sequence.

    ``fibers``/``nnzs`` must already exclude empty fibers.  An operand that
    fits the cache is never evicted from, so its touches miss only on lines
    no earlier touch reached (:func:`first_touch_misses`); any other runs
    the LRU model over its expanded line trace.
    """
    pointers = ctx.streaming.pointers
    if _streaming_fits(ctx):
        return first_touch_misses(
            fibers, pointers, ctx.element_bytes, cfg.str_cache_line_bytes
        )
    first_line, line_counts = fiber_line_spans(
        pointers[fibers], nnzs, ctx.element_bytes, cfg.str_cache_line_bytes
    )
    return _span_misses(
        first_line, line_counts, cfg.str_cache_sets, cfg.str_cache_associativity
    )


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
    """Stream pass of the oracle walk ``ReferenceEngine._run_outer_product``."""
    cfg = engine.config
    a_csc = ctx.stationary
    b_row_nnz = ctx.b_row_nnz
    eb = ctx.element_bytes
    line_bytes = cfg.str_cache_line_bytes
    counts = np.diff(a_csc.pointers)
    ks_all = np.repeat(np.arange(a_csc.major_dim, dtype=np.int64), counts)
    ms_all = np.asarray(a_csc.indices, dtype=np.int64)
    psum_rows = ms_all
    psum_lens = b_row_nnz[ks_all]

    # The merging phase: the array form of the reference walk's row loop.
    merge = engine._merge_partial_fibers(ctx, psum_rows, psum_lens)
    output_elements = int(ctx.c_row_nnz.sum())
    n = len(ks_all)
    if n == 0:
        return StreamRecord(stats=DataflowStats(output_elements=output_elements))

    P = cfg.num_multipliers
    positions = np.arange(n, dtype=np.int64)
    batch_of = positions // P
    nb = int(batch_of[-1]) + 1
    sta_b = np.bincount(batch_of, minlength=nb)

    # One fiber touch per distinct k per batch; ks_all is non-decreasing,
    # so "distinct within batch" is "differs from predecessor or starts a
    # batch", and the touch order matches np.unique's ascending order.
    is_touch = np.empty(n, dtype=bool)
    is_touch[0] = True
    np.not_equal(ks_all[1:], ks_all[:-1], out=is_touch[1:])
    is_touch[::P] = True
    touch_k = ks_all[is_touch]
    touch_b = batch_of[is_touch]
    touch_nnz = ctx.streaming_fiber_nnz[touch_k]

    streamed_b = np.zeros(nb, dtype=np.int64)
    np.add.at(streamed_b, touch_b, touch_nnz)
    boundaries = np.concatenate((np.arange(0, n, P, dtype=np.int64), [n]))
    mult_prefix = np.concatenate(([0], np.cumsum(psum_lens)))
    mults_b = mult_prefix[boundaries[1:]] - mult_prefix[boundaries[:-1]]

    active = touch_nnz > 0
    miss_per_touch = _fiber_touch_misses(ctx, cfg, touch_k[active], touch_nnz[active])
    miss_b = np.zeros(nb, dtype=np.int64)
    np.add.at(miss_b, touch_b[active], miss_per_touch)
    total_misses = int(miss_per_touch.sum())
    total_streamed = int(streamed_b.sum())
    total_mults = int(mults_b.sum())
    miss_bytes_b = miss_b * line_bytes

    return StreamRecord(
        stats=DataflowStats(
            multiplications=total_mults,
            psum_writes=total_mults,
            stationary_elements_read=n,
            streaming_elements_read=total_streamed,
            output_elements=output_elements,
            stationary_iterations=nb,
        ),
        traffic=TrafficBreakdown(
            sta_bytes=n * eb, str_bytes=total_streamed * eb, psum_bytes=total_mults * eb
        ),
        cache=_cache_stats(int(touch_nnz[active].sum()), total_misses, line_bytes),
        dram=DramTrafficCounter(
            sta_read_bytes=n * eb, str_read_bytes=total_misses * line_bytes
        ),
        sta=sta_b,
        distributed=streamed_b,
        reduced=mults_b,
        dram_bytes=miss_bytes_b,
        merge=merge,
    )


# ----------------------------------------------------------------------
# Gustavson
# ----------------------------------------------------------------------
def run_gustavson(engine, ctx) -> StreamRecord:
    """Stream pass of the oracle walk ``ReferenceEngine._run_gustavson``."""
    cfg = engine.config
    a_csr = ctx.stationary
    b_csr = ctx.streaming
    b_row_nnz = ctx.b_row_nnz
    eb = ctx.element_bytes
    line_bytes = cfg.str_cache_line_bytes
    P = cfg.num_multipliers

    a_ptr = np.asarray(a_csr.pointers)
    a_idx = np.asarray(a_csr.indices, dtype=np.int64)
    row_nnz = np.diff(a_ptr)
    rows = np.flatnonzero(row_nnz)
    output_elements = int(ctx.c_row_nnz.sum())
    if len(rows) == 0:
        return StreamRecord(stats=DataflowStats(output_elements=output_elements))

    # Chunk layout: each non-empty row is cut into ceil(nnz/P) chunks of up
    # to P stationary scalars, processed row-major (the reference loop order).
    chunks_per_row = (row_nnz[rows] + P - 1) // P
    nchunks = int(chunks_per_row.sum())
    chunk_row = np.repeat(rows, chunks_per_row)
    chunk_pos = np.arange(nchunks, dtype=np.int64) - np.repeat(
        np.cumsum(chunks_per_row) - chunks_per_row, chunks_per_row
    )
    sta_b = np.minimum(row_nnz[chunk_row] - chunk_pos * P, P)
    multi_b = row_nnz[chunk_row] > P  # chunk belongs to a multi-chunk row

    # Every stored element of A is one fiber touch, in storage order; its
    # chunk is derived from the chunk sizes directly.
    elem_chunk = np.repeat(np.arange(nchunks, dtype=np.int64), sta_b)
    ks = a_idx
    touch_nnz = b_row_nnz[ks]

    chunk_bounds = np.concatenate(([0], np.cumsum(sta_b)))
    nnz_prefix = np.concatenate(([0], np.cumsum(touch_nnz)))
    # Every streamed element is multiplied once: one array for both networks.
    streamed_b = nnz_prefix[chunk_bounds[1:]] - nnz_prefix[chunk_bounds[:-1]]

    active = touch_nnz > 0
    miss_per_touch = _fiber_touch_misses(ctx, cfg, ks[active], touch_nnz[active])
    miss_b = np.zeros(nchunks, dtype=np.int64)
    np.add.at(miss_b, elem_chunk[active], miss_per_touch)
    total_misses = int(miss_per_touch.sum())
    total_streamed = int(streamed_b.sum())

    # Per-chunk output unions of the multi-chunk rows (the partial fibers
    # written to / merged from the PSRAM); single-chunk rows write C rows
    # straight out.
    chunk_out = np.zeros(nchunks, dtype=np.int64)
    multi_elems = multi_b[elem_chunk]
    if np.any(multi_elems):
        chunk_out += grouped_union_counts(
            np.asarray(b_csr.indices, dtype=np.int64),
            np.asarray(b_csr.pointers, dtype=np.int64),
            ks[multi_elems],
            elem_chunk[multi_elems],
            nchunks,
            b_csr.minor_dim,
        )
    out_bytes_b = np.where(multi_b, 0, ctx.c_row_nnz[chunk_row]) * eb
    miss_bytes_b = miss_b * line_bytes

    # Final merge of the per-chunk partial fibers of every multi-chunk row.
    merge = None
    if np.any(multi_b):
        multi_row = row_nnz[rows] > P
        row_first_chunk = np.concatenate(([0], np.cumsum(chunks_per_row)))
        starts = row_first_chunk[:-1][multi_row]
        ends = row_first_chunk[1:][multi_row]
        out_prefix = np.concatenate(([0], np.cumsum(chunk_out)))
        # PSRAM occupancy per row: blocks of every chunk's partial fiber.
        blocks_per_chunk = np.ceil(chunk_out / cfg.psram_elements_per_block).astype(np.int64)
        blocks_prefix = np.concatenate(([0], np.cumsum(blocks_per_chunk)))
        merge = RowMerges(
            inputs=out_prefix[ends] - out_prefix[starts],
            output_bytes=ctx.c_row_nnz[rows[multi_row]] * eb,
            blocks=blocks_prefix[ends] - blocks_prefix[starts],
        )

    total_sta = int(sta_b.sum())
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
        cache=_cache_stats(int(touch_nnz[active].sum()), total_misses, line_bytes),
        dram=DramTrafficCounter(
            sta_read_bytes=total_sta * eb,
            str_read_bytes=total_misses * line_bytes,
            output_write_bytes=int(out_bytes_b.sum()),
        ),
        sta=sta_b,
        distributed=streamed_b,
        reduced=streamed_b,
        dram_bytes=miss_bytes_b + out_bytes_b,
        exposed_misses=miss_b,
        merge=merge,
    )
