"""Gustavson's (row-wise product) dataflow: co-iteration over K at the middle loop.

This is the dataflow of GAMMA-like and MatRaptor-like accelerators.  Rows of
A are held stationary (one element per multiplier, grouped into per-row
clusters); each multiplier's effectual A coordinate fetches the *entire*
corresponding row fiber of B (leader-follower intersection) and scales it.
The scaled fibers of a cluster are merged immediately by the MRN into the
output fiber for that row, so — unlike OP — merging is restricted to the
current row and no partial sums touch memory unless the row does not fit in
one cluster pass.
"""

from __future__ import annotations

import numpy as np

from oracles.fiber import Fiber, fiber_of, matrix_from_fibers
from oracles.merge_util import merge_tree_counted
from oracles.result import DataflowResult
from oracles.values import transposed_values
from repro.dataflows.stats import DataflowStats
from repro.sparse.formats import CompressedMatrix, Layout


def run_gustavson(
    a: CompressedMatrix,
    b: CompressedMatrix,
    *,
    num_multipliers: int = 64,
    n_stationary: bool = False,
    values=(None, None),
) -> DataflowResult:
    """Execute C = A x B with Gustavson's dataflow.

    Parameters
    ----------
    a, b:
        Input matrices.  The M-stationary variant views both A and B through
        CSR fibers (rows), per Table 3.
    num_multipliers:
        Multiplier array width; a row of A whose nnz exceeds it requires
        multiple passes and spills partial fibers to the PSRAM.
    n_stationary:
        Run the ``Gust(N)`` variant (columns of B stationary, emits CSC).
    values:
        The value sources of A and B (see :func:`oracles.values.value_at`).
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if num_multipliers < 1:
        raise ValueError("num_multipliers must be positive")

    if n_stationary:
        mirrored = run_gustavson(
            b.transposed(), a.transposed(), num_multipliers=num_multipliers,
            values=(transposed_values(values[1]), transposed_values(values[0])),
        )
        return DataflowResult(mirrored.output.T, Layout.CSC, mirrored.stats)

    a_rows = a if a.layout is Layout.CSR else a.with_layout(Layout.CSR)
    b_rows = b if b.layout is Layout.CSR else b.with_layout(Layout.CSR)

    stats = DataflowStats()
    output_fibers: dict[int, Fiber] = {}

    for m in range(a_rows.major_dim):
        a_fiber = fiber_of(a_rows, m, values[0])
        if a_fiber.is_empty():
            continue
        elements = list(a_fiber)
        row_needs_spill = len(elements) > num_multipliers
        row_partials: list[Fiber] = []

        for start in range(0, len(elements), num_multipliers):
            cluster = elements[start : start + num_multipliers]
            stats.stationary_iterations += 1
            stats.stationary_elements_read += len(cluster)
            scaled_fibers: list[Fiber] = []
            for k, a_value in cluster:
                # Leader-follower intersection: the stationary coordinate k
                # fetches the whole fiber B[k, :].
                stats.intersection_probes += 1
                b_fiber = fiber_of(b_rows, k, values[1])
                if b_fiber.is_empty():
                    continue
                stats.streaming_elements_read += b_fiber.nnz
                scaled = b_fiber.scaled(a_value)
                stats.multiplications += scaled.nnz
                scaled_fibers.append(scaled)
            if not scaled_fibers:
                continue
            merged, comparisons, additions = merge_tree_counted(scaled_fibers)
            stats.merge_comparisons += comparisons
            stats.additions += additions
            stats.merge_passes += 1
            if row_needs_spill:
                # Partial output fiber: must be buffered in the PSRAM until
                # the rest of the row's passes have been produced.
                stats.psum_writes += merged.nnz
            row_partials.append(merged)

        if not row_partials:
            continue
        if len(row_partials) == 1:
            final_fiber = row_partials[0]
        else:
            # Final merge of the per-pass partial fibers (read back from PSRAM).
            stats.psum_reads += sum(f.nnz for f in row_partials)
            final_fiber, comparisons, additions = merge_tree_counted(row_partials)
            stats.merge_comparisons += comparisons
            stats.additions += additions
            stats.merge_passes += 1
        pruned = final_fiber.pruned()
        if not pruned.is_empty():
            output_fibers[m] = pruned

    output = matrix_from_fibers(a.nrows, b.ncols, output_fibers, layout=Layout.CSR)
    stats.output_elements = int(np.count_nonzero(output))
    return DataflowResult(output=output, layout=Layout.CSR, stats=stats)
