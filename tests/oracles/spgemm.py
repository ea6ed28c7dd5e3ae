"""Reference SpGEMM implementations used to validate the accelerator models.

Every dataflow implementation and every accelerator simulation in this
repository is checked against the two functions here.  Both read the
operands' values through :func:`oracles.values.value_at` (``values`` holds
the value sources of A and B) and return C as a dense array:

* :func:`dense_matmul` — the obvious dense ``A @ B`` on expanded arrays.
* :func:`spgemm_reference` — a straightforward hash-based Gustavson SpGEMM
  operating directly on compressed matrices, useful when the dense expansion
  would be too large.
"""

from __future__ import annotations

import numpy as np

from oracles.fiber import fiber_of
from oracles.values import dense_of
from repro.sparse.formats import CompressedMatrix, Layout


def dense_matmul(a: CompressedMatrix, b: CompressedMatrix, values=(None, None)) -> np.ndarray:
    """Dense reference product ``A @ B`` as a numpy array."""
    _check_shapes(a, b)
    return dense_of(a, values[0]) @ dense_of(b, values[1])


def spgemm_reference(
    a: CompressedMatrix, b: CompressedMatrix, values=(None, None)
) -> np.ndarray:
    """Sparse reference product computed row-by-row with a hash accumulator.

    This is Gustavson's algorithm in its textbook software form; it does not
    model any hardware behaviour and exists purely as ground truth.
    """
    _check_shapes(a, b)
    a_rows = a.with_layout(Layout.CSR)
    b_rows = b.with_layout(Layout.CSR)

    c = np.zeros((a.nrows, b.ncols))
    for m in range(a_rows.nrows):
        accumulator: dict[int, float] = {}
        for k, a_val in fiber_of(a_rows, m, values[0]):
            for n, b_val in fiber_of(b_rows, k, values[1]):
                accumulator[n] = accumulator.get(n, 0.0) + a_val * b_val
        for n, value in accumulator.items():
            c[m, n] = value
    return c


def matrices_allclose(a, b, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
    """Return True when two dense matrices share a shape and are numerically equal."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


def _check_shapes(a: CompressedMatrix, b: CompressedMatrix) -> None:
    if a.ncols != b.nrows:
        raise ValueError(
            f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
        )
