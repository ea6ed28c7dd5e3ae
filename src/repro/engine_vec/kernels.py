"""NumPy array kernels for the three dataflow walks.

Each ``run_*`` function below is the vectorized twin of the corresponding
walk of the test oracle
(:class:`~repro.accelerators.reference.ReferenceEngine`): it consumes the same
:class:`~repro.accelerators.engine._LayerContext` and produces **identical**
statistics, traffic, DRAM counters and cycle counts (see the package
docstring for the fidelity contract).  The kernels operate directly on the
CSR/CSC storage arrays (``pointers`` / ``indices``), replace the per-element
cache walk with the batched LRU model of
:mod:`repro.engine_vec.cache_model`, and compute per-batch cycle terms as
float64 arrays that are then accumulated in the walk's iteration order
so the floating-point sums match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.engine_vec.cache_model import (
    expand_spans,
    fiber_line_spans,
    lru_hits,
    lru_resident,
)

#: Expansion budget (elements) for grouped distinct-coordinate counting.
_UNION_CHUNK_ELEMENTS = 1 << 21

try:  # SciPy is optional: its C spgemm makes the structure-only pass faster,
    # but the NumPy fallback computes the very same exact integer counts.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - depends on the environment
    _scipy_sparse = None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def ordered_sum(values: np.ndarray, initial: float = 0.0) -> float:
    """Sum ``values`` left to right with scalar float adds.

    ``np.sum`` uses pairwise accumulation, which is *not* bit-identical to
    the reference engine's sequential ``+=`` loop; this helper restores the
    exact accumulation order (the arrays hold one term per batch/row, so the
    Python loop is tiny compared to the per-element work it replaces).
    """
    total = initial
    for value in values.tolist():
        total += value
    return total


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
    ``len(np.unique(concatenate(fiber coords)))`` per group.  With SciPy
    available the count is the structural row-nnz of a boolean spgemm
    (selector-matrix x B); otherwise fiber coordinate slices are expanded in
    bounded-size batches of whole groups, so peak memory stays bounded even
    for large products.  Both paths produce the same exact integers.

    With ``minor_counts`` the result is ``(per_group, per_minor)``, where
    ``per_minor[c]`` is the number of groups whose union holds coordinate
    ``c``: the column counts of the same structural product.
    """
    out = np.zeros(num_groups, dtype=np.int64)
    per_minor = np.zeros(minor_dim, dtype=np.int64)
    nk = len(ks)
    if nk == 0 or minor_dim == 0:
        return (out, per_minor) if minor_counts else out
    ks = np.asarray(ks, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    if _scipy_sparse is not None:
        k_dim = len(b_pointers) - 1
        indptr = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=num_groups))))
        selector = _scipy_sparse.csr_matrix(
            (np.ones(nk, dtype=np.int64), ks, indptr), shape=(num_groups, k_dim)
        )
        b_struct = _scipy_sparse.csr_matrix(
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
    counts = b_pointers[ks + 1] - b_pointers[ks]
    # Slice boundaries in ``ks`` space: never split a group across slices
    # (a coordinate present on both sides would be counted twice).
    group_change = np.flatnonzero(np.concatenate(([True], groups[1:] != groups[:-1])))
    group_sizes = np.add.reduceat(counts, group_change)
    cum = np.cumsum(group_sizes)
    start_group = 0
    num_chunks = len(group_change)
    while start_group < num_chunks:
        base = cum[start_group - 1] if start_group else 0
        end_group = int(np.searchsorted(cum, base + _UNION_CHUNK_ELEMENTS, side="left")) + 1
        end_group = max(start_group + 1, min(end_group, num_chunks))
        lo = group_change[start_group]
        hi = group_change[end_group] if end_group < num_chunks else nk
        sl_ks = ks[lo:hi]
        sl_groups = groups[lo:hi]
        sl_counts = counts[lo:hi]
        cols, of = expand_spans(b_pointers[sl_ks], sl_counts)
        if len(cols):
            coords = b_indices[cols]
            keys = sl_groups[of] * np.int64(minor_dim) + coords
            unique_keys = np.unique(keys)
            out += np.bincount(unique_keys // np.int64(minor_dim), minlength=num_groups)
            if minor_counts:
                per_minor += np.bincount(
                    unique_keys % np.int64(minor_dim), minlength=minor_dim
                )
        start_group = end_group
    return (out, per_minor) if minor_counts else out


def _flush_dram(counter, field: str, total: int, requests: int) -> None:
    """Credit bulk traffic to one DRAM stream, mirroring per-call accounting."""
    setattr(counter.traffic, field, getattr(counter.traffic, field) + int(total))
    counter.requests += int(requests)


#: Upper bound on the line-address trace one :func:`lru_hits` call resolves,
#: in int64 entries.  The batched LRU path allocates roughly 6-10
#: trace-sized temporaries (expanded lines, sort orders, previous-occurrence
#: and merge-tree buffers), so the cap bounds *peak* memory near ~0.5-1 GB,
#: not just the trace itself.  A longer trace, as unscaled
#: (REPRO_FULL_SCALE) layers can produce, is resolved in chunks of at most
#: this many lines with the same hits (see :func:`_span_misses`).
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


def _fiber_touch_misses(ctx, cfg, fibers: np.ndarray, nnzs: np.ndarray) -> np.ndarray:
    """Per-touch streaming-cache misses for an ordered fiber-touch sequence.

    ``fibers``/``nnzs`` must already exclude empty fibers.  Cache hit/miss
    *statistics* are updated here, so callers must not account them again.
    """
    first_line, line_counts = fiber_line_spans(
        ctx.streaming.pointers[fibers], nnzs, ctx.element_bytes, cfg.str_cache_line_bytes
    )
    misses = _span_misses(
        first_line, line_counts, cfg.str_cache_sets, cfg.str_cache_associativity
    )
    total_misses = int(misses.sum())
    total_elements = int(nnzs.sum())
    ctx.cache_stats.accesses += total_elements
    ctx.cache_stats.misses += total_misses
    ctx.cache_stats.hits += total_elements - total_misses
    ctx.cache_stats.miss_bytes += total_misses * cfg.str_cache_line_bytes
    return misses


# ----------------------------------------------------------------------
# Inner Product
# ----------------------------------------------------------------------
def pack_fiber_batches(
    pointers: np.ndarray, num_multipliers: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Array form of the oracle's greedy batch loop
    (:func:`repro.accelerators.reference._pack_whole_fibers`).

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


def run_inner_product(engine, ctx) -> None:
    """Vectorized twin of the oracle walk ``ReferenceEngine._run_inner_product``."""
    from repro.accelerators.engine import _lines_for

    cfg = engine.config
    a_csr = ctx.a_csr
    b_row_nnz = ctx.b_row_nnz
    eb = ctx.element_bytes
    bpc = ctx.dram.bytes_per_cycle
    snnz = int(ctx.streaming.nnz)
    streaming_lines = _lines_for(snnz, ctx)
    fits_in_cache = snnz * eb <= cfg.str_cache_bytes

    entry_m, entry_s, entry_e, entry_b, nb = pack_fiber_batches(
        a_csr.pointers, cfg.num_multipliers
    )
    ctx.stats.output_elements = int(ctx.c_row_nnz.sum())
    if nb == 0:
        return

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
    ctx.cache_stats.accesses += snnz * nb
    ctx.cache_stats.misses += total_misses
    ctx.cache_stats.hits += snnz * nb - total_misses
    ctx.cache_stats.miss_bytes += total_misses * cfg.str_cache_line_bytes

    total_sta = int(sta_b.sum())
    ctx.stats.stationary_iterations += nb
    ctx.stats.stationary_elements_read += total_sta
    ctx.traffic.sta_bytes += total_sta * eb
    _flush_dram(ctx.dram, "sta_read_bytes", total_sta * eb, int(np.count_nonzero(sta_b)))

    ctx.stats.streaming_elements_read += snnz * nb
    ctx.traffic.str_bytes += snnz * eb * nb
    miss_bytes_b = pass_misses * cfg.str_cache_line_bytes
    _flush_dram(
        ctx.dram,
        "str_read_bytes",
        total_misses * cfg.str_cache_line_bytes,
        int(np.count_nonzero(miss_bytes_b)),
    )

    ctx.stats.multiplications += int(mults_b.sum())
    ctx.stats.additions += int(np.maximum(0, mults_b - out_b).sum())
    ctx.stats.intersection_probes += snnz * int(rows_b.sum())

    out_bytes_b = out_b * eb
    _flush_dram(
        ctx.dram,
        "output_write_bytes",
        int(out_bytes_b.sum()),
        int(np.count_nonzero(out_bytes_b)),
    )

    ctx.cycles.stationary = ordered_sum(
        np.maximum(sta_b / cfg.distribution_bandwidth, (sta_b * eb) / bpc),
        ctx.cycles.stationary,
    )
    compute_b = np.maximum(snnz / cfg.distribution_bandwidth, out_b / cfg.reduction_bandwidth)
    dram_b = (miss_bytes_b + out_bytes_b) / bpc
    ctx.cycles.streaming = ordered_sum(
        np.maximum(compute_b, dram_b) + ctx.tree_depth, ctx.cycles.streaming
    )


# ----------------------------------------------------------------------
# Outer Product
# ----------------------------------------------------------------------
def run_outer_product(engine, ctx) -> None:
    """Vectorized twin of the oracle walk ``ReferenceEngine._run_outer_product``."""
    cfg = engine.config
    a_csc = ctx.stationary
    b_row_nnz = ctx.b_row_nnz
    eb = ctx.element_bytes
    bpc = ctx.dram.bytes_per_cycle
    counts = np.diff(a_csc.pointers)
    ks_all = np.repeat(np.arange(a_csc.major_dim, dtype=np.int64), counts)
    ms_all = np.asarray(a_csc.indices, dtype=np.int64)
    psum_rows = ms_all
    psum_lens = b_row_nnz[ks_all]

    n = len(ks_all)
    if n:
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
        miss_per_touch = _fiber_touch_misses(
            ctx, cfg, touch_k[active], touch_nnz[active]
        )
        miss_b = np.zeros(nb, dtype=np.int64)
        np.add.at(miss_b, touch_b[active], miss_per_touch)
        total_misses = int(miss_per_touch.sum())
        total_streamed = int(streamed_b.sum())

        ctx.stats.stationary_iterations += nb
        ctx.stats.stationary_elements_read += n
        ctx.traffic.sta_bytes += n * eb
        _flush_dram(ctx.dram, "sta_read_bytes", n * eb, int(np.count_nonzero(sta_b)))

        total_mults = int(mults_b.sum())
        ctx.stats.streaming_elements_read += total_streamed
        ctx.traffic.str_bytes += total_streamed * eb
        ctx.stats.multiplications += total_mults
        ctx.stats.psum_writes += total_mults
        ctx.traffic.psum_bytes += total_mults * eb

        miss_bytes_b = miss_b * cfg.str_cache_line_bytes
        _flush_dram(
            ctx.dram,
            "str_read_bytes",
            total_misses * cfg.str_cache_line_bytes,
            int(np.count_nonzero(miss_bytes_b)),
        )

        ctx.cycles.stationary = ordered_sum(
            np.maximum(sta_b / cfg.distribution_bandwidth, (sta_b * eb) / bpc),
            ctx.cycles.stationary,
        )
        compute_b = np.maximum(
            streamed_b / cfg.distribution_bandwidth, mults_b / cfg.reduction_bandwidth
        )
        ctx.cycles.streaming = ordered_sum(
            np.maximum(compute_b, miss_bytes_b / bpc) + 1, ctx.cycles.streaming
        )

    # The merging phase: the array form of the reference walk's row loop.
    engine._merge_partial_fibers(ctx, psum_rows, psum_lens)
    ctx.stats.output_elements = int(ctx.c_row_nnz.sum())


# ----------------------------------------------------------------------
# Gustavson
# ----------------------------------------------------------------------
def run_gustavson(engine, ctx) -> None:
    """Vectorized twin of the oracle walk ``ReferenceEngine._run_gustavson``."""
    cfg = engine.config
    a_csr = ctx.stationary
    b_csr = ctx.streaming
    b_row_nnz = ctx.b_row_nnz
    eb = ctx.element_bytes
    bpc = ctx.dram.bytes_per_cycle
    P = cfg.num_multipliers

    a_ptr = np.asarray(a_csr.pointers)
    a_idx = np.asarray(a_csr.indices, dtype=np.int64)
    row_nnz = np.diff(a_ptr)
    rows = np.flatnonzero(row_nnz)
    ctx.stats.output_elements = int(ctx.c_row_nnz.sum())
    if len(rows) == 0:
        return

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
    streamed_b = nnz_prefix[chunk_bounds[1:]] - nnz_prefix[chunk_bounds[:-1]]
    mults_b = streamed_b

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

    total_sta = int(sta_b.sum())
    ctx.stats.stationary_iterations += nchunks
    ctx.stats.stationary_elements_read += total_sta
    ctx.stats.intersection_probes += total_sta
    ctx.traffic.sta_bytes += total_sta * eb
    _flush_dram(ctx.dram, "sta_read_bytes", total_sta * eb, int(np.count_nonzero(sta_b)))

    ctx.stats.streaming_elements_read += total_streamed
    ctx.traffic.str_bytes += total_streamed * eb
    ctx.stats.multiplications += int(mults_b.sum())
    ctx.stats.merge_passes += nchunks

    total_chunk_out = int(chunk_out.sum())
    ctx.stats.psum_writes += total_chunk_out
    ctx.traffic.psum_bytes += total_chunk_out * eb
    _flush_dram(
        ctx.dram,
        "output_write_bytes",
        int(out_bytes_b.sum()),
        int(np.count_nonzero(out_bytes_b)),
    )
    miss_bytes_b = miss_b * cfg.str_cache_line_bytes
    _flush_dram(
        ctx.dram,
        "str_read_bytes",
        total_misses * cfg.str_cache_line_bytes,
        int(np.count_nonzero(miss_bytes_b)),
    )

    ctx.cycles.stationary = ordered_sum(
        np.maximum(sta_b / cfg.distribution_bandwidth, (sta_b * eb) / bpc),
        ctx.cycles.stationary,
    )
    compute_b = np.maximum(
        streamed_b / cfg.distribution_bandwidth, mults_b / cfg.reduction_bandwidth
    )
    dram_b = (miss_bytes_b + out_bytes_b) / bpc + miss_b * cfg.exposed_miss_latency_cycles
    ctx.cycles.streaming = ordered_sum(
        np.maximum(compute_b, dram_b) + 1, ctx.cycles.streaming
    )

    # Final merge of the per-chunk partial fibers of every multi-chunk row.
    if not np.any(multi_b):
        return
    multi_rows = rows[row_nnz[rows] > P]
    nmulti = len(multi_rows)
    out_prefix = np.concatenate(([0], np.cumsum(chunk_out)))
    row_first_chunk = np.concatenate(
        ([0], np.cumsum(chunks_per_row)))
    multi_mask_rows = row_nnz[rows] > P
    starts = row_first_chunk[:-1][multi_mask_rows]
    ends = row_first_chunk[1:][multi_mask_rows]
    total_in = out_prefix[ends] - out_prefix[starts]

    total_inputs = int(total_in.sum())
    ctx.stats.psum_reads += total_inputs
    ctx.traffic.psum_bytes += total_inputs * eb
    ctx.stats.merge_passes += nmulti

    row_out_bytes = ctx.c_row_nnz[multi_rows] * eb
    _flush_dram(
        ctx.dram,
        "output_write_bytes",
        int(row_out_bytes.sum()),
        int(np.count_nonzero(row_out_bytes)),
    )

    # PSRAM occupancy per row: blocks of every chunk's partial fiber.
    blocks_per_chunk = np.ceil(chunk_out / cfg.psram_elements_per_block).astype(np.int64)
    blocks_prefix = np.concatenate(([0], np.cumsum(blocks_per_chunk)))
    row_blocks = blocks_prefix[ends] - blocks_prefix[starts]
    spill_bytes = np.maximum(0, row_blocks - cfg.psram_blocks) * cfg.psram_block_bytes
    total_spill = int(spill_bytes.sum())
    if total_spill:
        _flush_dram(
            ctx.dram,
            "psum_spill_bytes",
            total_spill,
            int(np.count_nonzero(spill_bytes)),
        )

    # Merging cycles: per row, max(compute, dram) followed by the spill
    # penalty when the row overflowed the PSRAM — interleaved in row order
    # to reproduce the reference's accumulation sequence.
    merge_main = np.maximum(
        total_in / cfg.reduction_bandwidth + ctx.tree_depth, row_out_bytes / bpc
    )
    merge_spill = 2 * spill_bytes / bpc
    interleaved = np.empty(2 * nmulti, dtype=np.float64)
    interleaved[0::2] = merge_main
    interleaved[1::2] = merge_spill
    keep = np.empty(2 * nmulti, dtype=bool)
    keep[0::2] = True
    keep[1::2] = spill_bytes > 0
    ctx.cycles.merging = ordered_sum(interleaved[keep], ctx.cycles.merging)
