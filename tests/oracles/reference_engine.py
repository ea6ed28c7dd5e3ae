"""The test oracle: the per-batch Python walk of the SpMSpM engine.

:class:`ReferenceEngine` walks each dataflow one multiplier batch at a time
and probes every streaming-cache line against the per-set LRU state of
:class:`~oracles.cache.StreamingCache`.  The NumPy kernels of
:class:`~repro.accelerators.engine.SpmspmEngine` reproduce its records bit
for bit.  It lives outside the package, so the product runs exactly one
model of the hardware.
"""

from __future__ import annotations

import math

import numpy as np

from oracles.cache import StreamingCache
from oracles.streaming import StreamingTileReader
from repro.accelerators.engine import SpmspmEngine, _LayerContext, _lines_for
from repro.dataflows.base import Dataflow, DataflowClass
from repro.engine_vec.cache_model import expand_spans
from repro.sparse.formats import CompressedMatrix


class ReferenceEngine(SpmspmEngine):
    """The per-batch Python walk the kernels reproduce: a test oracle.

    Each dataflow is walked one multiplier batch at a time, driving the
    per-line cache model of :class:`StreamingTileReader` fiber by fiber.
    The runtime never selects it; ``tests/test_engine_equivalence.py``
    asserts the kernels match it bit for bit.  It overrides
    :meth:`_run_kernel`, which walks into the context directly and never
    reads or writes the engine's stream-record memo, and
    :meth:`_merge_partial_fibers` (the row loop the array merge and
    ``OpMerge.price`` reproduce together).  The walks, and the OP walk's
    merge, are called through the class, so installing :meth:`_run_kernel`
    on :class:`SpmspmEngine` routes every engine run of a sweep through the
    loops (the equivalence suite's whole-grid comparison does this).
    """

    def _run_kernel(self, dataflow: Dataflow, ctx: _LayerContext) -> None:
        cfg = self.config
        cache = StreamingCache(
            cfg.str_cache_bytes,
            cfg.str_cache_line_bytes,
            cfg.str_cache_associativity,
            banks=cfg.str_cache_banks,
            element_bytes=cfg.element_bytes,
        )
        cache.stats = ctx.cache_stats  # the walk's probes count into the record
        reader = StreamingTileReader(ctx.streaming, cache)
        walk = {
            DataflowClass.INNER_PRODUCT: ReferenceEngine._run_inner_product,
            DataflowClass.OUTER_PRODUCT: ReferenceEngine._run_outer_product,
            DataflowClass.GUSTAVSON: ReferenceEngine._run_gustavson,
        }[dataflow.dataflow_class]
        walk(self, ctx, reader)

    # ------------------------------------------------------------------
    # Inner Product (SIGMA-like behaviour)
    # ------------------------------------------------------------------
    def _run_inner_product(
        self, ctx: _LayerContext, reader: StreamingTileReader
    ) -> None:
        cfg = self.config
        a_csr = ctx.a_csr
        b_row_nnz = ctx.b_row_nnz
        streaming_nnz = int(ctx.streaming.nnz)
        streaming_lines = _lines_for(streaming_nnz, ctx)
        streaming_bytes = streaming_nnz * ctx.element_bytes
        fits_in_cache = streaming_bytes <= cfg.str_cache_bytes

        batches = _pack_whole_fibers(a_csr, cfg.num_multipliers)
        first_pass = True
        for batch in batches:
            sta_elems = sum(end - start for _, start, end in batch)
            ctx.stats.stationary_iterations += 1
            ctx.stats.stationary_elements_read += sta_elems
            ctx.traffic.sta_bytes += sta_elems * ctx.element_bytes
            ctx.dram.read_stationary(sta_elems * ctx.element_bytes)
            sta_cycles = max(
                sta_elems / cfg.distribution_bandwidth,
                (sta_elems * ctx.element_bytes) / ctx.dram.bytes_per_cycle,
            )
            ctx.cycles.stationary += sta_cycles

            # The entire streaming matrix passes by once per stationary batch.
            # Re-streaming is strictly sequential, so the cache behaviour is
            # closed-form: the first pass takes only compulsory misses; later
            # passes hit everything iff the matrix fits, otherwise sequential
            # LRU thrashing misses every line again.
            if first_pass or not fits_in_cache:
                pass_misses = streaming_lines
            else:
                pass_misses = 0
            first_pass = False
            reader.cache.stats.accesses += streaming_nnz
            reader.cache.stats.misses += pass_misses
            reader.cache.stats.hits += streaming_nnz - pass_misses
            miss_bytes = pass_misses * cfg.str_cache_line_bytes
            reader.cache.stats.miss_bytes += miss_bytes
            ctx.dram.read_streaming(miss_bytes)

            ctx.stats.streaming_elements_read += streaming_nnz
            ctx.traffic.str_bytes += streaming_nnz * ctx.element_bytes

            # Effectual multiplications of this batch: every (m, k) stationary
            # element intersects nnz(B[k, :]) streamed elements in total.
            mults = 0
            rows_in_batch = 0
            output_elements_completed = 0
            for m, start, end in batch:
                ks = a_csr.indices[start:end]
                mults += int(b_row_nnz[ks].sum())
                rows_in_batch += 1
                if end == int(a_csr.pointers[m + 1]):
                    output_elements_completed += int(ctx.c_row_nnz[m])
            ctx.stats.multiplications += mults
            ctx.stats.additions += max(0, mults - output_elements_completed)
            ctx.stats.intersection_probes += streaming_nnz * rows_in_batch

            output_bytes = output_elements_completed * ctx.element_bytes
            ctx.dram.write_output(output_bytes)

            # IP is distribution-bound: every streamed element is examined
            # once per batch (and multicast to the clusters it intersects);
            # the products of one delivery are reduced spatially by the FAN /
            # MRN within the same cycle, so only the completed output sums
            # compete for the reduction-network egress bandwidth.
            compute_cycles = max(
                streaming_nnz / cfg.distribution_bandwidth,
                output_elements_completed / cfg.reduction_bandwidth,
            )
            dram_cycles = (miss_bytes + output_bytes) / ctx.dram.bytes_per_cycle
            ctx.cycles.streaming += max(compute_cycles, dram_cycles) + ctx.tree_depth

        ctx.stats.output_elements = int(ctx.c_row_nnz.sum())

    # ------------------------------------------------------------------
    # Outer Product (SpArch-like behaviour)
    # ------------------------------------------------------------------
    def _run_outer_product(
        self, ctx: _LayerContext, reader: StreamingTileReader
    ) -> None:
        cfg = self.config
        a_csc = ctx.stationary  # CSC view: fibers are columns of A
        b_row_nnz = ctx.b_row_nnz
        counts = np.diff(a_csc.pointers)
        ks_all = np.repeat(np.arange(a_csc.major_dim, dtype=np.int64), counts)
        ms_all = np.asarray(a_csc.indices, dtype=np.int64)

        # Per-output-row partial fiber lengths (one partial fiber per stationary
        # scalar), used by the merging-phase model below.
        psum_rows = ms_all
        psum_lens = b_row_nnz[ks_all]

        num_elements = len(ks_all)
        for start in range(0, num_elements, cfg.num_multipliers):
            end = min(start + cfg.num_multipliers, num_elements)
            batch_ks = ks_all[start:end]
            sta_elems = end - start
            ctx.stats.stationary_iterations += 1
            ctx.stats.stationary_elements_read += sta_elems
            ctx.traffic.sta_bytes += sta_elems * ctx.element_bytes
            ctx.dram.read_stationary(sta_elems * ctx.element_bytes)
            ctx.cycles.stationary += max(
                sta_elems / cfg.distribution_bandwidth,
                (sta_elems * ctx.element_bytes) / ctx.dram.bytes_per_cycle,
            )

            distinct_ks = np.unique(batch_ks)
            streamed = 0
            misses = 0
            for k in distinct_ks:
                _, fiber_misses = _touch_streaming_fiber(ctx, reader, int(k))
                misses += fiber_misses
                streamed += int(ctx.streaming_fiber_nnz[k])
            mults = int(b_row_nnz[batch_ks].sum())
            ctx.stats.streaming_elements_read += streamed
            ctx.traffic.str_bytes += streamed * ctx.element_bytes
            ctx.stats.multiplications += mults
            ctx.stats.psum_writes += mults
            ctx.traffic.psum_bytes += mults * ctx.element_bytes

            miss_bytes = misses * cfg.str_cache_line_bytes
            ctx.dram.read_streaming(miss_bytes)
            compute_cycles = max(
                streamed / cfg.distribution_bandwidth,
                mults / cfg.reduction_bandwidth,
            )
            dram_cycles = miss_bytes / ctx.dram.bytes_per_cycle
            ctx.cycles.streaming += max(compute_cycles, dram_cycles) + 1

        ReferenceEngine._merge_partial_fibers(self, ctx, psum_rows, psum_lens)
        ctx.stats.output_elements = int(ctx.c_row_nnz.sum())

    # ------------------------------------------------------------------
    # Merging phase (Outer Product)
    # ------------------------------------------------------------------
    def _merge_partial_fibers(
        self, ctx: _LayerContext, psum_rows: np.ndarray, psum_lens: np.ndarray
    ) -> None:
        """Model the OP merging phase from the list of partial fiber lengths.

        The row-by-row loop :meth:`SpmspmEngine._merge_partial_fibers`
        reproduces with array code.
        """
        cfg = self.config
        if len(psum_rows) == 0:
            return

        order = np.argsort(psum_rows, kind="stable")
        rows_sorted = psum_rows[order]
        lens_sorted = psum_lens[order]
        row_starts = np.flatnonzero(
            np.concatenate(([True], rows_sorted[1:] != rows_sorted[:-1]))
        )
        row_ends = np.concatenate((row_starts[1:], [len(rows_sorted)]))

        # A merge pass must combine at least two fibers to make progress, even
        # in a degenerate single-multiplier configuration.
        leaves = max(2, cfg.num_multipliers)
        total_merge_inputs = 0
        merge_cycles = 0.0
        total_spilled_blocks = 0
        total_blocks_needed = int(
            np.ceil(lens_sorted / max(1, cfg.psram_elements_per_block)).sum()
        )
        # Per-row counts of non-empty partial fibers and total inputs; a row
        # whose fibers fit one pass (the overwhelmingly common case) needs no
        # per-row array slicing or pending-list walk.
        positive_prefix = np.concatenate(([0], np.cumsum(lens_sorted > 0)))
        length_prefix = np.concatenate(([0], np.cumsum(lens_sorted)))
        row_fibers = (positive_prefix[row_ends] - positive_prefix[row_starts]).tolist()
        row_inputs = (length_prefix[row_ends] - length_prefix[row_starts]).tolist()
        tree_depth = ctx.tree_depth
        red_bw = cfg.reduction_bandwidth
        for index, (rs, re) in enumerate(zip(row_starts, row_ends)):
            fibers = row_fibers[index]
            if fibers == 0:
                continue
            if fibers <= leaves:
                # Single pass: every partial fiber of the row merges at once.
                inputs = row_inputs[index]
                total_merge_inputs += inputs
                merge_cycles += inputs / red_bw + tree_depth
                ctx.stats.merge_passes += 1
                continue
            # Multi-pass row: the tree repeatedly folds ``leaves`` fibers into
            # one partial result that re-enters the next pass, i.e. pass 1
            # consumes ``leaves`` fibers and every later pass ``leaves - 1``
            # fresh ones plus the previous merge.  Walking prefix sums
            # reproduces the pending-list fold without per-pass list slicing.
            row = int(rows_sorted[rs])
            out_len = int(ctx.c_row_nnz[row])
            lengths = lens_sorted[rs:re]
            prefix = np.concatenate(([0], np.cumsum(lengths[lengths > 0]))).tolist()
            count = len(prefix) - 1
            inputs = prefix[leaves]
            total_merge_inputs += inputs
            merge_cycles += inputs / red_bw + tree_depth
            passes = 1
            consumed = leaves
            while consumed < count:
                merged_len = min(inputs, out_len)
                ctx.stats.psum_writes += merged_len
                ctx.traffic.psum_bytes += merged_len * ctx.element_bytes
                upto = min(consumed + leaves - 1, count)
                inputs = merged_len + prefix[upto] - prefix[consumed]
                total_merge_inputs += inputs
                merge_cycles += inputs / red_bw + tree_depth
                passes += 1
                consumed = upto
            ctx.stats.merge_passes += passes

        ctx.stats.psum_reads += total_merge_inputs
        ctx.traffic.psum_bytes += total_merge_inputs * ctx.element_bytes

        # PSRAM occupancy: all partial fibers of the layer coexist before the
        # merging phase starts; anything beyond the PSRAM capacity spills.
        if total_blocks_needed > cfg.psram_blocks:
            total_spilled_blocks = total_blocks_needed - cfg.psram_blocks
        spill_bytes = total_spilled_blocks * cfg.psram_block_bytes
        if spill_bytes:
            ctx.dram.spill_psums(spill_bytes)

        output_bytes = int(ctx.c_row_nnz.sum()) * ctx.element_bytes
        ctx.dram.write_output(output_bytes)
        dram_cycles = (2 * spill_bytes + output_bytes) / ctx.dram.bytes_per_cycle
        ctx.cycles.merging += max(merge_cycles, dram_cycles)

    # ------------------------------------------------------------------
    # Gustavson (GAMMA-like behaviour)
    # ------------------------------------------------------------------
    def _run_gustavson(
        self, ctx: _LayerContext, reader: StreamingTileReader
    ) -> None:
        cfg = self.config
        a_csr = ctx.stationary  # CSR view: fibers are rows of A
        b_csr = ctx.streaming
        b_row_nnz = ctx.b_row_nnz
        b_indices = np.asarray(b_csr.indices)
        b_pointers = np.asarray(b_csr.pointers)

        spill_row_blocks_peak = 0
        for m in range(a_csr.major_dim):
            start = int(a_csr.pointers[m])
            end = int(a_csr.pointers[m + 1])
            if start == end:
                continue
            row_ks = np.asarray(a_csr.indices[start:end], dtype=np.int64)
            multi_chunk = len(row_ks) > cfg.num_multipliers
            chunk_output_lens: list[int] = []

            for cstart in range(0, len(row_ks), cfg.num_multipliers):
                chunk_ks = row_ks[cstart : cstart + cfg.num_multipliers]
                sta_elems = len(chunk_ks)
                ctx.stats.stationary_iterations += 1
                ctx.stats.stationary_elements_read += sta_elems
                ctx.stats.intersection_probes += sta_elems
                ctx.traffic.sta_bytes += sta_elems * ctx.element_bytes
                ctx.dram.read_stationary(sta_elems * ctx.element_bytes)
                ctx.cycles.stationary += max(
                    sta_elems / cfg.distribution_bandwidth,
                    (sta_elems * ctx.element_bytes) / ctx.dram.bytes_per_cycle,
                )

                streamed = 0
                misses = 0
                for k in chunk_ks:
                    _, fiber_misses = _touch_streaming_fiber(ctx, reader, int(k))
                    misses += fiber_misses
                    streamed += int(b_row_nnz[k])
                mults = streamed  # every streamed element is multiplied once
                ctx.stats.streaming_elements_read += streamed
                ctx.traffic.str_bytes += streamed * ctx.element_bytes
                ctx.stats.multiplications += mults
                ctx.stats.merge_passes += 1

                if multi_chunk:
                    chunk_out = _union_length(b_indices, b_pointers, chunk_ks)
                    chunk_output_lens.append(chunk_out)
                    ctx.stats.psum_writes += chunk_out
                    ctx.traffic.psum_bytes += chunk_out * ctx.element_bytes
                    output_bytes = 0
                else:
                    output_bytes = int(ctx.c_row_nnz[m]) * ctx.element_bytes
                    ctx.dram.write_output(output_bytes)

                miss_bytes = misses * cfg.str_cache_line_bytes
                ctx.dram.read_streaming(miss_bytes)
                compute_cycles = max(
                    streamed / cfg.distribution_bandwidth,
                    mults / cfg.reduction_bandwidth,
                )
                # Gustavson's fiber gathers are irregular and demand-driven:
                # unlike the sequential streams of IP/OP they cannot be fully
                # prefetched, so each miss exposes part of the DRAM latency.
                dram_cycles = (
                    (miss_bytes + output_bytes) / ctx.dram.bytes_per_cycle
                    + misses * cfg.exposed_miss_latency_cycles
                )
                ctx.cycles.streaming += max(compute_cycles, dram_cycles) + 1

            if multi_chunk:
                # Final merge of the per-chunk partial fibers read back from
                # the PSRAM, feeding the comparator tree once more.
                total_in = int(sum(chunk_output_lens))
                ctx.stats.psum_reads += total_in
                ctx.traffic.psum_bytes += total_in * ctx.element_bytes
                ctx.stats.merge_passes += 1
                output_bytes = int(ctx.c_row_nnz[m]) * ctx.element_bytes
                ctx.dram.write_output(output_bytes)
                compute_cycles = total_in / cfg.reduction_bandwidth + ctx.tree_depth
                dram_cycles = output_bytes / ctx.dram.bytes_per_cycle
                ctx.cycles.merging += max(compute_cycles, dram_cycles)

                row_blocks = sum(
                    _blocks_for(length, ctx) for length in chunk_output_lens
                )
                spill_row_blocks_peak = max(spill_row_blocks_peak, row_blocks)
                if row_blocks > cfg.psram_blocks:
                    spill_bytes = (row_blocks - cfg.psram_blocks) * cfg.psram_block_bytes
                    ctx.dram.spill_psums(spill_bytes)
                    ctx.cycles.merging += 2 * spill_bytes / ctx.dram.bytes_per_cycle

        ctx.stats.output_elements = int(ctx.c_row_nnz.sum())


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _pack_whole_fibers(
    matrix: CompressedMatrix, num_multipliers: int
) -> list[list[tuple[int, int, int]]]:
    """Greedy packing of whole fibers into multiplier batches.

    Returns batches as lists of ``(major_index, start, end)`` index ranges
    into the matrix storage.  Fibers longer than the array are split into
    array-sized chunks that occupy a batch alone (temporal K-tiling).
    """
    batches: list[list[tuple[int, int, int]]] = []
    current: list[tuple[int, int, int]] = []
    used = 0
    pointers = matrix.pointers.tolist()  # plain ints: cheaper per-row reads
    for major in range(matrix.major_dim):
        start, end = pointers[major], pointers[major + 1]
        nnz = end - start
        if nnz == 0:
            continue
        if nnz > num_multipliers:
            if current:
                batches.append(current)
                current, used = [], 0
            for chunk_start in range(start, end, num_multipliers):
                batches.append([(major, chunk_start, min(chunk_start + num_multipliers, end))])
            continue
        if used + nnz > num_multipliers and current:
            batches.append(current)
            current, used = [], 0
        current.append((major, start, end))
        used += nnz
    if current:
        batches.append(current)
    return batches


def _union_length(
    b_indices: np.ndarray, b_pointers: np.ndarray, ks: np.ndarray
) -> int:
    """Number of distinct column coordinates in the union of B rows ``ks``."""
    if len(ks) == 0:
        return 0
    ks = np.asarray(ks, dtype=np.int64)
    counts = b_pointers[ks + 1] - b_pointers[ks]
    if len(ks) == 1:
        return int(counts[0])
    positions, _ = expand_spans(b_pointers[ks], counts)
    return int(len(np.unique(b_indices[positions])))


def _touch_streaming_fiber(
    ctx: _LayerContext, reader: StreamingTileReader, fiber_index: int
) -> tuple[int, int]:
    """Drive the streaming cache for one fiber read; return ``(nnz, misses)``."""
    nnz = int(ctx.streaming_fiber_nnz[fiber_index])
    if nnz == 0:
        return 0, 0
    misses = reader.touch_fiber(fiber_index)
    return nnz, misses


def _blocks_for(num_elements: int, ctx: _LayerContext) -> int:
    """Number of PSRAM blocks needed to hold ``num_elements`` partial sums."""
    if num_elements <= 0:
        return 0
    return int(math.ceil(num_elements / ctx.config.psram_elements_per_block))
