"""Sparse matrix substrate used by every other subsystem in the repository.

The package implements the compressed formats the paper builds on (CSR and
CSC, Section 2.1) and synthetic sparse matrix generation with controllable
sparsity patterns.  A matrix is its structure: the ``pointers`` and
``indices`` arrays, with no value vector.  A *fiber* — one compressed row
(CSR) or column (CSC) — is a slice of those arrays (``fiber_nnz``).  Layout
flips and transposes are :class:`CompressedMatrix` methods (``with_layout``,
``transposed``).
"""

from repro.sparse.formats import (
    CompressedMatrix,
    Layout,
    csc_from_dense,
    csr_from_dense,
    empty_matrix,
    matrix_from_arrays,
)
from repro.sparse.generate import SparsityPattern, random_sparse

__all__ = [
    "CompressedMatrix",
    "Layout",
    "csr_from_dense",
    "csc_from_dense",
    "empty_matrix",
    "matrix_from_arrays",
    "SparsityPattern",
    "random_sparse",
]
