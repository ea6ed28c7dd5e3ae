"""The shared cycle-accounting SpMSpM engine.

All four hardware designs evaluated in the paper (Flexagon and the
SIGMA-like, SpArch-like and GAMMA-like baselines) are modelled with the same
64-multiplier substrate: the same distribution / multiplier / reduction
bandwidths and the same L1 sizing (Section 4, "we model the same parameters
presented in Table 5, and we only change the memory controllers to deliver
the data in the proper order according to its dataflow").  This module is
that substrate: it executes one SpMSpM layer under a given dataflow and
returns cycles (split into stationary / streaming / merging phases), on-chip
and off-chip traffic, cache miss rates and PSRAM behaviour.

Modelling approach: the NumPy kernels of :mod:`repro.engine_vec.kernels`
count the exact element streams each dataflow produces, run an exact LRU
model of the set-associative streaming cache and an occupancy model of the
PSRAM, and convert element counts into cycles with the configured bandwidth
bounds:

* the Distribution Network injects at most ``distribution_bandwidth``
  elements per cycle,
* the MRN accepts at most ``reduction_bandwidth`` elements per cycle, and
* every phase can also be bound by DRAM bandwidth (misses, spills, stationary
  fills and output writes), whichever is slower.

The per-phase time is the maximum of the compute-bound and memory-bound
terms, the standard first-order throughput model for streaming accelerators.
:class:`ReferenceEngine` keeps the per-batch Python walk the kernels
reproduce bit for bit, as the test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.arch.controllers.streaming import StreamingTileReader
from repro.arch.memory.cache import StreamingCache
from repro.arch.memory.dram import DramModel
from repro.dataflows.base import DATAFLOW_PROPERTIES, Dataflow, DataflowClass
from repro.dataflows.runner import run_dataflow
from repro.dataflows.stats import DataflowStats
from repro.engine_vec import kernels
from repro.metrics.results import LayerSimResult, PhaseCycles, TrafficBreakdown
from repro.sparse.formats import CompressedMatrix, Layout, cached_derived, stable_order


@dataclass
class _LayerContext:
    """Pre-computed views and hardware instances for one layer execution."""

    config: AcceleratorConfig
    stationary: CompressedMatrix
    streaming: CompressedMatrix
    cache: StreamingCache
    reader: StreamingTileReader
    dram: DramModel
    #: nnz of each fiber (row) of the streaming operand, indexed by K.
    streaming_fiber_nnz: np.ndarray
    #: nnz of each output row of C (union of streamed fibers per stationary row).
    c_row_nnz: np.ndarray
    stats: DataflowStats = field(default_factory=DataflowStats)
    cycles: PhaseCycles = field(default_factory=PhaseCycles)
    traffic: TrafficBreakdown = field(default_factory=TrafficBreakdown)

    @property
    def element_bytes(self) -> int:
        return self.config.element_bytes

    @functools.cached_property
    def tree_depth(self) -> int:
        return max(1, int(math.ceil(math.log2(max(2, self.config.num_multipliers)))))


class SpmspmEngine:
    """Cycle-accounting simulator of one SpMSpM layer on the shared substrate."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run_layer(
        self,
        dataflow: Dataflow,
        a: CompressedMatrix,
        b: CompressedMatrix,
        *,
        capture_output: bool = False,
        layer_name: str = "",
        accelerator_name: str = "engine",
    ) -> LayerSimResult:
        """Simulate ``C = A x B`` under ``dataflow`` and return the result record."""
        if a.ncols != b.nrows:
            raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")

        if dataflow.is_n_stationary:
            a_t, b_t = b.transposed(), a.transposed()
            # Only CSR operands are their own CSR views; for others, sharing
            # would add a layout flip, so the mirrored run counts for itself.
            if a.layout is Layout.CSR and b.layout is Layout.CSR:
                _share_output_nnz(a, b, a_t, b_t)
            mirrored = self.run_layer(
                dataflow.mirrored(),
                a_t,
                b_t,
                capture_output=capture_output,
                layer_name=layer_name,
                accelerator_name=accelerator_name,
            )
            output = mirrored.output
            if output is not None:
                output = output.transposed()
            return replace(mirrored, dataflow=dataflow, output=output)

        ctx = self._build_context(dataflow, a, b)
        self._run_kernel(dataflow, ctx)

        ctx.traffic.offchip_bytes = ctx.dram.traffic.total_bytes
        output = None
        if capture_output:
            output = run_dataflow(
                dataflow, a, b, num_multipliers=self.config.num_multipliers
            ).output
        return LayerSimResult(
            accelerator=accelerator_name,
            dataflow=dataflow,
            cycles=ctx.cycles,
            traffic=ctx.traffic,
            str_cache_miss_rate=ctx.cache.stats.miss_rate,
            str_cache_accesses=ctx.cache.stats.accesses,
            stats=ctx.stats,
            output=output,
            layer_name=layer_name,
            dram=ctx.dram.traffic,  # full off-chip breakdown for the benches
        )

    # ------------------------------------------------------------------
    # Context construction
    # ------------------------------------------------------------------
    def _build_context(
        self, dataflow: Dataflow, a: CompressedMatrix, b: CompressedMatrix
    ) -> _LayerContext:
        props = DATAFLOW_PROPERTIES[dataflow]
        # For the three M-stationary dataflows the stationary operand is always
        # derived from A and the streaming operand from B; what changes is the
        # layout each is viewed through (Table 3).
        stationary = a.with_layout(props.a_format)
        streaming = b.with_layout(props.b_format)

        cfg = self.config
        cache = StreamingCache(
            cfg.str_cache_bytes,
            cfg.str_cache_line_bytes,
            cfg.str_cache_associativity,
            banks=cfg.str_cache_banks,
            element_bytes=cfg.element_bytes,
        )
        dram = DramModel(cfg.dram, cfg.frequency_hz)
        reader = StreamingTileReader(streaming, cache)

        # Per-row nnz of B (indexed by K) and per-row nnz of C, computed from
        # CSR views of the original operands.  These drive multiplication
        # counts and output traffic for every dataflow.
        a_csr = a.with_layout(Layout.CSR)
        b_csr = b if b.layout is Layout.CSR else b.with_layout(Layout.CSR)
        b_row_nnz = np.diff(b_csr.pointers)
        c_row_nnz = output_row_nnz(a_csr, b_csr)

        # The streaming fiber nnz must be expressed in the streaming view's
        # own major axis (columns of B for IP, rows of B for OP/Gust).
        streaming_fiber_nnz = np.diff(streaming.pointers)

        ctx = _LayerContext(
            config=cfg,
            stationary=stationary,
            streaming=streaming,
            cache=cache,
            reader=reader,
            dram=dram,
            streaming_fiber_nnz=streaming_fiber_nnz,
            c_row_nnz=c_row_nnz,
        )
        ctx.b_row_nnz = b_row_nnz
        ctx.a_csr = a_csr
        ctx.b_csr = b_csr
        return ctx

    def _run_kernel(self, dataflow: Dataflow, ctx: _LayerContext) -> None:
        """Run the NumPy kernel of ``dataflow``'s family over ``ctx``.

        Looked up on the module per call, so a wrapper installed on
        ``kernels.run_*`` (the per-layer trace) sees every run.
        """
        kernel = {
            DataflowClass.INNER_PRODUCT: kernels.run_inner_product,
            DataflowClass.OUTER_PRODUCT: kernels.run_outer_product,
            DataflowClass.GUSTAVSON: kernels.run_gustavson,
        }[dataflow.dataflow_class]
        kernel(self, ctx)

    # ------------------------------------------------------------------
    # Merging-phase model (Outer Product)
    # ------------------------------------------------------------------
    def _merge_partial_fibers(
        self, ctx: _LayerContext, psum_rows: np.ndarray, psum_lens: np.ndarray
    ) -> None:
        """Model the OP merging phase from the list of partial fiber lengths.

        Array form of :meth:`ReferenceEngine._merge_partial_fibers`.  A row
        with more non-empty partial fibers than tree leaves merges in
        passes: pass 0 takes the first ``leaves`` fibers, every later pass
        ``leaves - 1`` fresh ones plus the previous pass's result, truncated
        to the row's output length ``L``.  With ``S_p`` the total length of
        the fresh fibers of passes ``0..p``, the truncated result re-entering
        pass ``p`` is ``min(S_{p-1}, L)`` (by induction, as fresh inputs are
        never negative), so the passes of all rows form one ragged array in
        row-major order and no loop is needed.
        """
        cfg = self.config
        if len(psum_rows) == 0:
            return

        # Empty partial fibers take no part in a merge.
        nonempty = psum_lens > 0
        rows = psum_rows[nonempty]
        lens = psum_lens[nonempty]
        order = stable_order(rows, len(ctx.c_row_nnz))
        rows = rows[order]
        lens = lens[order]
        total_blocks_needed = int(
            np.ceil(lens / max(1, cfg.psram_elements_per_block)).sum()
        )

        # A merge pass must combine at least two fibers to make progress, even
        # in a degenerate single-multiplier configuration.
        leaves = max(2, cfg.num_multipliers)
        new_row = np.empty(len(rows), dtype=bool)
        new_row[:1] = True
        np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
        row_starts = np.flatnonzero(new_row)
        row_fibers = np.diff(np.append(row_starts, len(rows)))
        passes = 1 + (np.maximum(row_fibers - leaves, 0) + leaves - 2) // (leaves - 1)
        # One entry per (row, pass), row-major: the reference loop's order.
        pass_row = np.repeat(np.arange(len(passes)), passes)
        first_pass = np.cumsum(passes) - passes
        pass_index = np.arange(int(passes.sum())) - first_pass[pass_row]
        consumed = np.minimum(leaves + pass_index * (leaves - 1), row_fibers[pass_row])
        length_prefix = np.concatenate(([0], np.cumsum(lens)))
        start = row_starts[pass_row]
        fresh_through = length_prefix[start + consumed] - length_prefix[start]  # S_p
        fresh_before = np.zeros_like(fresh_through)  # S_{p-1}, 0 for pass 0
        fresh_before[1:] = fresh_through[:-1]
        fresh_before[first_pass] = 0
        merged = np.minimum(fresh_before, ctx.c_row_nnz[rows[start]])
        inputs = merged + fresh_through - fresh_before

        total_merged = int(merged.sum())
        ctx.stats.psum_writes += total_merged
        ctx.traffic.psum_bytes += total_merged * ctx.element_bytes
        ctx.stats.merge_passes += len(inputs)
        total_merge_inputs = int(inputs.sum())
        merge_cycles = kernels.ordered_sum(
            inputs / cfg.reduction_bandwidth + ctx.tree_depth
        )
        ctx.stats.psum_reads += total_merge_inputs
        ctx.traffic.psum_bytes += total_merge_inputs * ctx.element_bytes

        # PSRAM occupancy: all partial fibers of the layer coexist before the
        # merging phase starts; anything beyond the PSRAM capacity spills.
        total_spilled_blocks = max(0, total_blocks_needed - cfg.psram_blocks)
        spill_bytes = total_spilled_blocks * cfg.psram_block_bytes
        if spill_bytes:
            ctx.dram.spill_psums(spill_bytes)

        output_bytes = int(ctx.c_row_nnz.sum()) * ctx.element_bytes
        ctx.dram.write_output(output_bytes)
        dram_cycles = (2 * spill_bytes + output_bytes) / ctx.dram.bytes_per_cycle
        ctx.cycles.merging += max(merge_cycles, dram_cycles)


class ReferenceEngine(SpmspmEngine):
    """The per-batch Python walk the kernels reproduce: a test oracle.

    Each dataflow is walked one multiplier batch at a time, driving the
    per-line cache model of :class:`StreamingTileReader` fiber by fiber.
    The runtime never selects it; ``tests/test_engine_equivalence.py``
    asserts the kernels match it bit for bit and ``scripts/bench_engine.py``
    times them against it.  It overrides :meth:`_run_kernel` and
    :meth:`_merge_partial_fibers` (the row loop the array merge reproduces).
    The walks, and the OP walk's merge, are called through the class, so
    installing :meth:`_run_kernel` on :class:`SpmspmEngine` routes every
    engine run of a sweep through the loops.
    """

    def _run_kernel(self, dataflow: Dataflow, ctx: _LayerContext) -> None:
        walk = {
            DataflowClass.INNER_PRODUCT: ReferenceEngine._run_inner_product,
            DataflowClass.OUTER_PRODUCT: ReferenceEngine._run_outer_product,
            DataflowClass.GUSTAVSON: ReferenceEngine._run_gustavson,
        }[dataflow.dataflow_class]
        walk(self, ctx)

    # ------------------------------------------------------------------
    # Inner Product (SIGMA-like behaviour)
    # ------------------------------------------------------------------
    def _run_inner_product(self, ctx: _LayerContext) -> None:
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
            ctx.cache.stats.accesses += streaming_nnz
            ctx.cache.stats.misses += pass_misses
            ctx.cache.stats.hits += streaming_nnz - pass_misses
            miss_bytes = pass_misses * cfg.str_cache_line_bytes
            ctx.cache.stats.miss_bytes += miss_bytes
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
    def _run_outer_product(self, ctx: _LayerContext) -> None:
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
                _, fiber_misses = _touch_streaming_fiber(ctx, int(k))
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
    def _run_gustavson(self, ctx: _LayerContext) -> None:
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
                    _, fiber_misses = _touch_streaming_fiber(ctx, int(k))
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
    array-sized chunks that occupy a batch alone (temporal K-tiling), matching
    :class:`repro.arch.controllers.stationary.StationaryTileReader`.
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


def output_row_nnz(a_csr: CompressedMatrix, b_csr: CompressedMatrix) -> np.ndarray:
    """nnz of every output row of C = A x B, memoized per live operand pair.

    The oracle mapper simulates the same operand pair under up to six
    dataflows (plus the final run), and the design grid shares materialized
    operands between jobs, so the structure-only output pass is the hottest
    redundant work of a sweep.  The pass yields C's column counts as well,
    memoized beside the row counts (see :func:`_share_output_nnz`).
    """
    return _output_nnz(a_csr, b_csr)[0]


def _output_nnz(
    a_csr: CompressedMatrix, b_csr: CompressedMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Memoized ``(row counts, column counts)`` of C = A x B."""
    return cached_derived(
        "output_nnz", lambda: _structural_counts(a_csr, b_csr), a_csr, b_csr
    )


def _structural_counts(
    a_csr: CompressedMatrix, b_csr: CompressedMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """nnz of every output row and column of C = A x B (structure only).

    Computed with one grouped distinct-coordinate count over the CSR index
    arrays (rows of A are the groups) instead of a per-row Python union —
    the counts are exact integers either way.
    """
    a_indices = np.asarray(a_csr.indices, dtype=np.int64)
    if len(a_indices) == 0:
        return np.zeros(a_csr.nrows, dtype=np.int64), np.zeros(b_csr.ncols, dtype=np.int64)
    rows_of = np.repeat(
        np.arange(a_csr.nrows, dtype=np.int64), np.diff(a_csr.pointers)
    )
    return kernels.grouped_union_counts(
        np.asarray(b_csr.indices, dtype=np.int64),
        np.asarray(b_csr.pointers, dtype=np.int64),
        a_indices,
        rows_of,
        a_csr.nrows,
        b_csr.minor_dim,
        minor_counts=True,
    )


def _share_output_nnz(
    a_csr: CompressedMatrix,
    b_csr: CompressedMatrix,
    a_t: CompressedMatrix,
    b_t: CompressedMatrix,
) -> None:
    """Hand C's column counts to the mirrored run of an N-stationary layer.

    The mirrored run simulates ``Cᵀ = Bᵀ Aᵀ`` over ``(a_t, b_t)``, whose
    output rows are C's columns, so the structural product of the original
    CSR pair answers its :func:`output_row_nnz` too.  The mirrored pair's
    CSR views are the ones its own context requests.
    """
    # Through the module function, so a wrapper on it sees the product.
    rows = output_row_nnz(a_csr, b_csr)
    cols = _output_nnz(a_csr, b_csr)[1]
    cached_derived(
        "output_nnz",
        lambda: (cols, rows),
        a_t.with_layout(Layout.CSR),
        b_t.with_layout(Layout.CSR),
    )


def _union_length(
    b_indices: np.ndarray, b_pointers: np.ndarray, ks: np.ndarray
) -> int:
    """Number of distinct column coordinates in the union of B rows ``ks``."""
    if len(ks) == 0:
        return 0
    from repro.engine_vec.cache_model import expand_spans

    ks = np.asarray(ks, dtype=np.int64)
    counts = b_pointers[ks + 1] - b_pointers[ks]
    if len(ks) == 1:
        return int(counts[0])
    positions, _ = expand_spans(b_pointers[ks], counts)
    return int(len(np.unique(b_indices[positions])))


def _touch_streaming_fiber(ctx: _LayerContext, fiber_index: int) -> tuple[int, int]:
    """Drive the streaming cache for one fiber read; return ``(nnz, misses)``."""
    nnz = int(ctx.streaming_fiber_nnz[fiber_index])
    if nnz == 0:
        return 0, 0
    misses = ctx.reader.touch_fiber(fiber_index)
    return nnz, misses


def _lines_for(num_elements: int, ctx: _LayerContext) -> int:
    """Number of cache lines spanned by ``num_elements`` consecutive elements."""
    if num_elements <= 0:
        return 0
    bytes_total = num_elements * ctx.element_bytes
    return int(math.ceil(bytes_total / ctx.config.str_cache_line_bytes))


def _blocks_for(num_elements: int, ctx: _LayerContext) -> int:
    """Number of PSRAM blocks needed to hold ``num_elements`` partial sums."""
    if num_elements <= 0:
        return 0
    return int(math.ceil(num_elements / ctx.config.psram_elements_per_block))
