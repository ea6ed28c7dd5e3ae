"""Reference SpGEMM implementations used to validate the accelerator models.

Every dataflow implementation and every accelerator simulation in this
repository is checked against the two functions here:

* :func:`dense_matmul` — the obvious dense ``A @ B`` on expanded arrays.
* :func:`spgemm_reference` — a straightforward hash-based Gustavson SpGEMM
  operating directly on compressed matrices, useful when the dense expansion
  would be too large.
"""

from __future__ import annotations

import numpy as np

from oracles.fiber import fiber_of
from repro.sparse.formats import CompressedMatrix, Layout, matrix_from_coo


def dense_matmul(a: CompressedMatrix, b: CompressedMatrix) -> np.ndarray:
    """Dense reference product ``A @ B`` as a numpy array."""
    _check_shapes(a, b)
    return a.to_dense() @ b.to_dense()


def spgemm_reference(
    a: CompressedMatrix,
    b: CompressedMatrix,
    layout: Layout = Layout.CSR,
) -> CompressedMatrix:
    """Sparse reference product computed row-by-row with a hash accumulator.

    This is Gustavson's algorithm in its textbook software form; it does not
    model any hardware behaviour and exists purely as ground truth.
    """
    _check_shapes(a, b)
    a_rows = a if a.layout is Layout.CSR else a.with_layout(Layout.CSR)
    b_rows = b if b.layout is Layout.CSR else b.with_layout(Layout.CSR)

    triples: list[tuple[int, int, float]] = []
    for m in range(a_rows.nrows):
        accumulator: dict[int, float] = {}
        for k, a_val in fiber_of(a_rows, m):
            for n, b_val in fiber_of(b_rows, k):
                accumulator[n] = accumulator.get(n, 0.0) + a_val * b_val
        triples.extend((m, n, v) for n, v in accumulator.items() if v != 0.0)
    return matrix_from_coo(a.nrows, b.ncols, triples, layout=layout)


def matrices_allclose(
    a: CompressedMatrix | np.ndarray,
    b: CompressedMatrix | np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> bool:
    """Return True when the two matrices are numerically equal after densifying."""
    dense_a = a.to_dense() if isinstance(a, CompressedMatrix) else np.asarray(a)
    dense_b = b.to_dense() if isinstance(b, CompressedMatrix) else np.asarray(b)
    if dense_a.shape != dense_b.shape:
        return False
    return bool(np.allclose(dense_a, dense_b, rtol=rtol, atol=atol))


def _check_shapes(a: CompressedMatrix, b: CompressedMatrix) -> None:
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
        )
