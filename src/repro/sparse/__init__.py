"""Sparse matrix substrate used by every other subsystem in the repository.

The package implements the compressed formats the paper builds on (CSR and
CSC, Section 2.1) and synthetic sparse matrix generation with controllable
sparsity patterns.  A *fiber* — one compressed row (CSR) or column (CSC) —
is a slice of a matrix's storage arrays (``fiber_nnz``, ``iter_elements``).
Layout flips, transposes and dense expansion are :class:`CompressedMatrix`
methods (``with_layout``, ``transposed``, ``to_dense``).
"""

from repro.sparse.formats import (
    CompressedMatrix,
    Layout,
    csc_from_dense,
    csr_from_dense,
    empty_matrix,
    matrix_from_arrays,
    matrix_from_coo,
)
from repro.sparse.generate import (
    SparsityPattern,
    random_sparse,
    sparse_from_density_map,
)

__all__ = [
    "CompressedMatrix",
    "Layout",
    "csr_from_dense",
    "csc_from_dense",
    "empty_matrix",
    "matrix_from_arrays",
    "matrix_from_coo",
    "SparsityPattern",
    "random_sparse",
    "sparse_from_density_map",
]
