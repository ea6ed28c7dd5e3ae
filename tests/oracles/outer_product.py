"""Outer-Product (OP) dataflow: co-iteration over K at the outermost loop.

This is the dataflow of SpArch-like and OuterSpace-like accelerators.  Each
multiplier holds a single scalar of the stationary matrix (a column element
of A in the M-stationary variant) and linearly combines an entire streamed
fiber of B with it, producing a partial-sum fiber per (row, k) pair.  Every
partial sum is written to the PSRAM and a separate merging phase combines,
row by row, all the k-iteration fibers into the final output fiber.

The trade-off: no intersection hardware is needed and inputs are read only
once, but the volume of partial sums (and hence PSRAM traffic and merge work)
can dwarf the final output size.
"""

from __future__ import annotations

from oracles.fiber import Fiber, fiber_of, matrix_from_fibers
from oracles.merge_util import merge_tree_counted
from oracles.result import DataflowResult
from repro.dataflows.stats import DataflowStats
from repro.sparse.formats import CompressedMatrix, Layout


def run_outer_product(
    a: CompressedMatrix,
    b: CompressedMatrix,
    *,
    num_multipliers: int = 64,
    n_stationary: bool = False,
) -> DataflowResult:
    """Execute C = A x B with the Outer-Product dataflow.

    Parameters
    ----------
    a, b:
        Input matrices.  The M-stationary variant views A through CSC fibers
        (columns) and B through CSR fibers (rows), per Table 3.
    num_multipliers:
        Multiplier array width: how many stationary scalars are resident at a
        time, which controls how many partial fibers coexist.
    n_stationary:
        Run the ``OP(N)`` variant (B stationary, emits CSC output).
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if num_multipliers < 1:
        raise ValueError("num_multipliers must be positive")

    if n_stationary:
        mirrored = run_outer_product(
            b.transposed(), a.transposed(),
            num_multipliers=num_multipliers, n_stationary=False,
        )
        mirrored.output = mirrored.output.transposed()
        return mirrored

    a_cols = a if a.layout is Layout.CSC else a.with_layout(Layout.CSC)
    b_rows = b if b.layout is Layout.CSR else b.with_layout(Layout.CSR)

    stats = DataflowStats()
    # Partial fibers per output row: row -> list of fibers (one per k chunk).
    partial_fibers: dict[int, list[Fiber]] = {}

    # ------------------------------------------------------------------
    # Stationary + streaming phases.
    # Stationary scalars (elements of A, walked column by column) are packed
    # into multiplier-array batches; each scalar consumes the B fiber for its
    # own k coordinate.
    # ------------------------------------------------------------------
    stationary_elements = [
        (int(row_coord), k, float(value))
        for k in range(a_cols.major_dim)
        for row_coord, value in fiber_of(a_cols, k)
    ]

    for start in range(0, len(stationary_elements), num_multipliers):
        batch = stationary_elements[start : start + num_multipliers]
        stats.stationary_iterations += 1
        stats.stationary_elements_read += len(batch)
        # Each distinct k in the batch streams its B fiber once (multicast to
        # every multiplier holding an element of that column).
        distinct_ks = {k for _, k, _ in batch}
        stats.streaming_elements_read += sum(b_rows.fiber_nnz(k) for k in distinct_ks)
        for m, k, a_value in batch:
            b_fiber = fiber_of(b_rows, k)
            if b_fiber.is_empty():
                continue
            psum_fiber = b_fiber.scaled(a_value)
            stats.multiplications += psum_fiber.nnz
            stats.psum_writes += psum_fiber.nnz
            partial_fibers.setdefault(m, []).append(psum_fiber)

    # ------------------------------------------------------------------
    # Merging phase: row by row, merge all the k-iteration fibers.
    # When a row has more partial fibers than tree leaves, multiple passes
    # are needed (the intermediate result respills to the PSRAM).
    # ------------------------------------------------------------------
    output_fibers: dict[int, Fiber] = {}
    for m, fibers in partial_fibers.items():
        merged, passes, pass_stats = _merge_row(fibers, num_multipliers)
        stats.psum_reads += pass_stats["psum_reads"]
        stats.psum_writes += pass_stats["respill_writes"]
        stats.merge_comparisons += pass_stats["comparisons"]
        stats.additions += pass_stats["additions"]
        stats.merge_passes += passes
        pruned = merged.pruned()
        if not pruned.is_empty():
            output_fibers[m] = pruned

    output = matrix_from_fibers(a.nrows, b.ncols, output_fibers, layout=Layout.CSR)
    stats.output_elements = output.nnz
    return DataflowResult(output=output, stats=stats)


def _merge_row(
    fibers: list[Fiber], tree_leaves: int
) -> tuple[Fiber, int, dict[str, int]]:
    """Merge one output row's partial fibers, modelling multi-pass spills.

    Returns ``(merged_fiber, passes, counters)`` where counters tracks the
    psum reads, respill writes, comparisons and additions performed.
    """
    counters = {"psum_reads": 0, "respill_writes": 0, "comparisons": 0, "additions": 0}
    pending = [f for f in fibers if not f.is_empty()]
    passes = 0
    if not pending:
        return Fiber(), 0, counters
    # A merge pass must combine at least two fibers to make progress; a
    # degenerate single-multiplier configuration still time-shares the one
    # comparator node over two input streams.
    fibers_per_pass = max(2, tree_leaves)
    while True:
        passes += 1
        take = pending[:fibers_per_pass]
        rest = pending[fibers_per_pass:]
        counters["psum_reads"] += sum(f.nnz for f in take)
        merged, comparisons, additions = merge_tree_counted(take)
        counters["comparisons"] += comparisons
        counters["additions"] += additions
        if not rest:
            return merged, passes, counters
        # The intermediate merged fiber must be written back to the PSRAM and
        # participate in the next pass.
        counters["respill_writes"] += merged.nnz
        pending = [merged] + rest
