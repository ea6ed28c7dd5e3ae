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
bounds.  They do it in two passes: a stream pass, which reads no pricing
field of the configuration (bandwidths, DRAM, clock, outstanding misses,
PSRAM capacity) and is memoized per operand pair, and a pricing pass per
run, which applies those fields:

* the Distribution Network injects at most ``distribution_bandwidth``
  elements per cycle,
* the MRN accepts at most ``reduction_bandwidth`` elements per cycle, and
* every phase can also be bound by DRAM bandwidth (misses, spills, stationary
  fills and output writes), whichever is slower.

The per-phase time is the maximum of the compute-bound and memory-bound
terms, the standard first-order throughput model for streaming accelerators.
The per-batch Python walk the kernels reproduce bit for bit is the test
oracle ``ReferenceEngine`` (``tests/oracles/reference_engine.py``), outside
the package.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.arch.memory.dram import DramModel
from repro.dataflows.base import DATAFLOW_PROPERTIES, Dataflow, DataflowClass
from repro.dataflows.stats import DataflowStats
from repro.engine_vec import kernels
from repro.engine_vec.cache_model import CacheStats
from repro.metrics.results import LayerSimResult, PhaseCycles, TrafficBreakdown
from repro.sparse.formats import CompressedMatrix, Layout, cached_derived


@dataclass
class _LayerContext:
    """Pre-computed views and the counters of one layer execution."""

    config: AcceleratorConfig
    stationary: CompressedMatrix
    streaming: CompressedMatrix
    dram: DramModel
    #: nnz of each fiber of the streaming operand, in its view's own major
    #: axis (columns of B for IP, rows of B for OP/Gust).
    streaming_fiber_nnz: np.ndarray
    #: nnz of each output row of C (union of streamed fibers per stationary row).
    c_row_nnz: np.ndarray
    #: CSR views of the original operands and the per-row nnz of B (indexed
    #: by K); they drive multiplication counts and output traffic.
    a_csr: CompressedMatrix
    b_csr: CompressedMatrix
    b_row_nnz: np.ndarray
    #: Streaming-cache accesses, hits and misses of the layer.
    cache_stats: CacheStats = field(default_factory=CacheStats)
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
                layer_name=layer_name,
                accelerator_name=accelerator_name,
            )
            return replace(mirrored, dataflow=dataflow)

        ctx = self._build_context(dataflow, a, b)
        self._run_kernel(dataflow, ctx)

        ctx.traffic.offchip_bytes = ctx.dram.traffic.total_bytes
        return LayerSimResult(
            accelerator=accelerator_name,
            dataflow=dataflow,
            cycles=ctx.cycles,
            traffic=ctx.traffic,
            str_cache_miss_rate=ctx.cache_stats.miss_rate,
            str_cache_accesses=ctx.cache_stats.accesses,
            stats=ctx.stats,
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

        a_csr = a.with_layout(Layout.CSR)
        b_csr = b if b.layout is Layout.CSR else b.with_layout(Layout.CSR)
        return _LayerContext(
            config=self.config,
            stationary=stationary,
            streaming=streaming,
            dram=DramModel(self.config.dram, self.config.frequency_hz),
            streaming_fiber_nnz=np.diff(streaming.pointers),
            c_row_nnz=output_row_nnz(a_csr, b_csr),
            a_csr=a_csr,
            b_csr=b_csr,
            b_row_nnz=np.diff(b_csr.pointers),
        )

    def _run_kernel(self, dataflow: Dataflow, ctx: _LayerContext) -> None:
        """Price the stream record of ``dataflow`` over ``ctx``'s operands.

        Every run prices a record.  The record comes from the NumPy stream
        pass of ``dataflow``'s family and is memoized per live operand pair
        (``ctx``'s CSR views, as :func:`output_row_nnz` is), dataflow and
        :data:`_stream_key`, so configurations that differ only in pricing
        fields share one stream pass for as long as the operands live.
        The kernel is looked up on the module per call, so a wrapper
        installed on ``kernels.run_*`` (the per-layer trace) sees every
        stream pass.
        """
        kernel = {
            DataflowClass.INNER_PRODUCT: kernels.run_inner_product,
            DataflowClass.OUTER_PRODUCT: kernels.run_outer_product,
            DataflowClass.GUSTAVSON: kernels.run_gustavson,
        }[dataflow.dataflow_class]
        record = cached_derived(
            ("stream", dataflow, _stream_key(self.config)),
            lambda: kernel(self, ctx),
            ctx.a_csr,
            ctx.b_csr,
        )
        kernels.price(record, ctx)

    # ------------------------------------------------------------------
    # Merging-phase model (Outer Product)
    # ------------------------------------------------------------------
    def _merge_partial_fibers(self, ctx: _LayerContext) -> kernels.OpMerge | None:
        """The OP merging phase's stream pass, from the partial fiber lengths.

        Every stored ``(m, k)`` of A leaves row ``m`` a partial fiber of
        ``nnz(B[k, :])`` elements.  A's CSR view lists a row's fibers in
        increasing ``k``, the order in which the oracle's row loop
        (``ReferenceEngine._merge_partial_fibers`` in
        ``tests/oracles/reference_engine.py``) takes them from the walk, and
        is read in blocks of whole rows of at most ``kernels._BLOCK`` stored
        elements.  :meth:`kernels.OpMerge.price` completes the array form
        with the merging cycles and the PSRAM spill; ``None`` when A is
        empty.  A row with more non-empty partial fibers than tree leaves
        merges in passes: pass 0 takes the first ``leaves`` fibers, every
        later pass ``leaves - 1`` fresh ones plus the previous pass's result,
        truncated to the row's output length ``L``.  With ``S_p`` the total
        length of the fresh fibers of passes ``0..p``, the truncated result
        re-entering pass ``p`` is ``min(S_{p-1}, L)`` (by induction, as fresh
        inputs are never negative), so the passes of a block's rows form one
        ragged array in row-major order and no loop over rows is needed.
        """
        cfg = self.config
        a_ptr = ctx.a_csr.pointers
        if a_ptr[-1] == 0:
            return None

        # A merge pass must combine at least two fibers to make progress, even
        # in a degenerate single-multiplier configuration.
        leaves = max(2, cfg.num_multipliers)
        merged = blocks_needed = 0
        inputs = []
        for first, end in kernels._group_blocks(a_ptr, kernels._BLOCK):
            lens = ctx.b_row_nnz[ctx.a_csr.indices[a_ptr[first] : a_ptr[end]]]
            rows = np.repeat(np.arange(first, end), np.diff(a_ptr[first : end + 1]))
            # Empty partial fibers take no part in a merge.
            nonempty = lens > 0
            rows = rows[nonempty]
            lens = lens[nonempty]
            blocks_needed += int(np.ceil(lens / max(1, cfg.psram_elements_per_block)).sum())

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
            truncated = np.minimum(fresh_before, ctx.c_row_nnz[rows[start]])
            merged += int(truncated.sum())
            inputs.append(truncated + fresh_through - fresh_before)
        return kernels.OpMerge(
            merged=merged,
            inputs=kernels._join(inputs),
            blocks=blocks_needed,
            output_bytes=int(ctx.c_row_nnz.sum()) * ctx.element_bytes,
        )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
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
    arrays (rows of A are the groups; :func:`kernels.grouped_union_counts`
    ORs B's rows as 64-bit coordinate sets, or sorts ``(row, column)`` keys
    when they are sparse) instead of a per-row Python union — the counts
    are exact integers either way.
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


#: ``config`` with its pricing fields normalised out: the values of every
#: field of :class:`AcceleratorConfig` that :data:`kernels.PRICING_FIELDS`
#: does not name.  A field added to the config later therefore keys the
#: stream record until it is named as pricing: over-keying only costs
#: sharing.
_stream_key = operator.attrgetter(
    *(
        spec.name
        for spec in fields(AcceleratorConfig)
        if spec.name not in kernels.PRICING_FIELDS
    )
)


def _lines_for(num_elements: int, ctx: _LayerContext) -> int:
    """Number of cache lines spanned by ``num_elements`` consecutive elements."""
    if num_elements <= 0:
        return 0
    bytes_total = num_elements * ctx.element_bytes
    return int(math.ceil(bytes_total / ctx.config.str_cache_line_bytes))


