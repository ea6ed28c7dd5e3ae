"""Inner-Product (IP) dataflow: co-iteration over K at the innermost loop.

This is the dataflow of SIGMA-like accelerators (Table 1).  Rows of A are
held stationary in the multipliers (M-stationary variant), every column of B
is streamed past them, and a hardware intersection unit aligns the effectual
elements so the reduction tree can produce each output value as one *full*
sum — no partial sums, no merging phase.

The trade-off the paper highlights: the streaming matrix is re-streamed once
per stationary batch, so IP pays heavily when A does not fit in the array and
when the intersection is sparse (many streamed elements produce no work).
"""

from __future__ import annotations

import numpy as np

from oracles.fiber import fiber_of
from oracles.result import DataflowResult
from oracles.values import transposed_values
from repro.dataflows.stats import DataflowStats
from repro.sparse.formats import CompressedMatrix, Layout


def run_inner_product(
    a: CompressedMatrix,
    b: CompressedMatrix,
    *,
    num_multipliers: int = 64,
    n_stationary: bool = False,
    values=(None, None),
) -> DataflowResult:
    """Execute C = A x B with the Inner-Product dataflow.

    Parameters
    ----------
    a, b:
        Input matrices (any layout; they are viewed through the layouts Table 3
        requires: A as CSR fibers, B as CSC fibers for the M-stationary case).
    num_multipliers:
        Size of the multiplier array; determines how many stationary elements
        fit per iteration and therefore how many times B is re-streamed.
    n_stationary:
        Run the N-stationary variant (``IP(N)``), which holds columns of B
        stationary, streams rows of A, and emits C in CSC.
    values:
        The value sources of A and B (see :func:`oracles.values.value_at`).
    """
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if num_multipliers < 1:
        raise ValueError("num_multipliers must be positive")

    if n_stationary:
        mirrored = run_inner_product(
            b.transposed(), a.transposed(), num_multipliers=num_multipliers,
            values=(transposed_values(values[1]), transposed_values(values[0])),
        )
        return DataflowResult(mirrored.output.T, Layout.CSC, mirrored.stats)

    a_rows = a if a.layout is Layout.CSR else a.with_layout(Layout.CSR)
    b_cols = b if b.layout is Layout.CSC else b.with_layout(Layout.CSC)

    stats = DataflowStats()
    b_nnz = b_cols.nnz
    stationary_batches = _pack_rows(a_rows, num_multipliers, values[0])
    partial_accumulator: dict[tuple[int, int], float] = {}

    for batch in stationary_batches:
        stats.stationary_iterations += 1
        batch_fibers = {m: (fiber_of(a_rows, m, values[0]) if chunk is None else chunk)
                        for m, chunk in batch}
        stats.stationary_elements_read += sum(f.nnz for f in batch_fibers.values())
        # The whole streaming matrix passes by once per stationary batch.
        stats.streaming_elements_read += b_nnz
        for n in range(b_cols.major_dim):
            b_fiber = fiber_of(b_cols, n, values[1])
            if b_fiber.is_empty():
                continue
            for m, a_fiber in batch_fibers.items():
                if a_fiber.is_empty():
                    continue
                # The controller checks each streamed element against the
                # stationary fiber to find intersections.
                stats.intersection_probes += b_fiber.nnz
                value, matches = a_fiber.dot(b_fiber)
                stats.multiplications += matches
                if matches:
                    stats.additions += matches - 1
                    key = (m, n)
                    if key in partial_accumulator:
                        # Temporal accumulation across K-chunks of a split row.
                        partial_accumulator[key] += value
                        stats.additions += 1
                    else:
                        partial_accumulator[key] = value

    output = np.zeros((a.nrows, b.ncols))
    for (m, n), value in partial_accumulator.items():
        output[m, n] = value
    stats.output_elements = int(np.count_nonzero(output))
    return DataflowResult(output=output, layout=Layout.CSR, stats=stats)


def _pack_rows(
    a_rows: CompressedMatrix, num_multipliers: int, values=None
) -> list[list[tuple[int, "object"]]]:
    """Greedily pack rows of A into multiplier-array-sized stationary batches.

    Each batch is a list of ``(row_index, fiber_chunk_or_None)`` pairs.  A
    ``None`` chunk means "the whole row"; rows longer than the array are split
    into chunks of at most ``num_multipliers`` elements that occupy an entire
    batch on their own (temporal K-tiling).
    """
    batches: list[list[tuple[int, object]]] = []
    current: list[tuple[int, object]] = []
    used = 0
    for m in range(a_rows.major_dim):
        nnz = a_rows.fiber_nnz(m)
        if nnz == 0:
            continue
        if nnz > num_multipliers:
            if current:
                batches.append(current)
                current, used = [], 0
            fiber = fiber_of(a_rows, m, values)
            elements = list(fiber)
            for start in range(0, len(elements), num_multipliers):
                chunk_fiber = type(fiber)(
                    (e.coord, e.value) for e in elements[start : start + num_multipliers]
                )
                batches.append([(m, chunk_fiber)])
            continue
        if used + nnz > num_multipliers and current:
            batches.append(current)
            current, used = [], 0
        current.append((m, None))
        used += nnz
    if current:
        batches.append(current)
    return batches
