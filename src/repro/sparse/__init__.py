"""Sparse matrix substrate used by every other subsystem in the repository.

The package implements the compressed formats the paper builds on (CSR and
CSC, Section 2.1), the *fiber* abstraction (a compressed row or column stored
as a coordinate-sorted list of ``(coordinate, value)`` elements), synthetic
sparse matrix generation with controllable sparsity patterns, and a dense
reference implementation used for validation.  Layout flips, transposes and
dense expansion are :class:`CompressedMatrix` methods (``with_layout``,
``transposed``, ``to_dense``).
"""

from repro.sparse.fiber import Element, Fiber
from repro.sparse.formats import (
    CompressedMatrix,
    Layout,
    csc_from_dense,
    csr_from_dense,
    empty_matrix,
    matrix_from_arrays,
    matrix_from_coo,
    matrix_from_fibers,
)
from repro.sparse.generate import (
    SparsityPattern,
    random_sparse,
    sparse_from_density_map,
)
from repro.sparse.reference import (
    dense_matmul,
    matrices_allclose,
    spgemm_reference,
)

__all__ = [
    "Element",
    "Fiber",
    "CompressedMatrix",
    "Layout",
    "csr_from_dense",
    "csc_from_dense",
    "empty_matrix",
    "matrix_from_arrays",
    "matrix_from_coo",
    "matrix_from_fibers",
    "SparsityPattern",
    "random_sparse",
    "sparse_from_density_map",
    "dense_matmul",
    "spgemm_reference",
    "matrices_allclose",
]
