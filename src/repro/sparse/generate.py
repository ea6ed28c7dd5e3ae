"""Synthetic sparse matrix generation.

The paper evaluates on the weights and activations of eight pruned DNN models
(Table 2).  The original pruned checkpoints are not available, and this
reproduction's policy for an input it cannot obtain is a documented synthetic
stand-in: matrices that match the published dimensions and sparsity ratios.
Several sparsity *patterns* are
provided because the relative behaviour of the dataflows depends not only on
the sparsity degree but also on how the non-zeros cluster:

* ``UNIFORM`` — every entry is independently non-zero with the target density
  (models activation sparsity from ReLU).
* ``ROW_SKEWED`` — per-row densities drawn from a power-law, modelling pruned
  weight matrices where some output channels keep many more weights.
* ``BANDED`` — non-zeros concentrated around the diagonal band (models
  depthwise/locally-connected structure).
* ``BLOCK`` — non-zeros grouped in dense blocks (models structured pruning).

Generators draw positions only: a generated matrix is the structure of its
non-zeros (see :mod:`repro.sparse.formats`), with no position repeated.
Generation is fully vectorised (numpy) so that layers with millions of
non-zeros remain cheap to synthesise.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.sparse.formats import CompressedMatrix, Layout, empty_matrix, matrix_from_arrays


class SparsityPattern(enum.Enum):
    """How the non-zero coordinates of a generated matrix are distributed."""

    UNIFORM = "uniform"
    ROW_SKEWED = "row_skewed"
    BANDED = "banded"
    BLOCK = "block"


def random_sparse(
    nrows: int,
    ncols: int,
    density: float,
    *,
    pattern: SparsityPattern = SparsityPattern.UNIFORM,
    layout: Layout = Layout.CSR,
    seed: int | np.random.Generator = 0,
) -> CompressedMatrix:
    """Generate a random sparse matrix with (approximately) the given density.

    Parameters
    ----------
    nrows, ncols:
        Matrix shape.
    density:
        Target fraction of non-zero entries in ``[0, 1]``.
    pattern:
        Spatial distribution of the non-zeros; see :class:`SparsityPattern`.
    layout:
        Storage layout of the returned matrix.
    seed:
        Integer seed or an existing ``numpy`` generator, for reproducibility.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be within [0, 1], got {density}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if nrows == 0 or ncols == 0 or density == 0.0:
        return empty_matrix(max(nrows, 0), max(ncols, 0), layout)

    if pattern is SparsityPattern.UNIFORM:
        flat = _uniform_positions(nrows, ncols, density, rng)
        if layout is Layout.CSR:
            return _csr_from_positions(nrows, ncols, flat)
        rows, cols = flat // ncols, flat % ncols
    elif pattern is SparsityPattern.ROW_SKEWED:
        rows, cols = _row_skewed_coords(nrows, ncols, density, rng)
    elif pattern is SparsityPattern.BANDED:
        rows, cols = _banded_coords(nrows, ncols, density, rng)
    elif pattern is SparsityPattern.BLOCK:
        rows, cols = _block_coords(nrows, ncols, density, rng)
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown pattern {pattern}")

    return matrix_from_arrays(nrows, ncols, rows, cols, layout=layout)


# ----------------------------------------------------------------------
# Pattern implementations (each returns parallel row/col index arrays; the
# uniform one returns flat positions)
# ----------------------------------------------------------------------
def _uniform_positions(
    nrows: int, ncols: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Distinct flat positions ``row x ncols + col``, drawn uniformly."""
    total = nrows * ncols
    count = max(0, min(_stochastic_round(density * total, rng), total))
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(total, size=count, replace=False)


def _csr_from_positions(nrows: int, ncols: int, flat: np.ndarray) -> CompressedMatrix:
    """The CSR matrix of distinct flat positions, sorted in place: then they
    run row by row with increasing columns, the canonical storage
    :func:`~repro.sparse.formats.matrix_from_arrays` builds, and each row
    starts where its first position would be inserted."""
    flat.sort()
    pointers = np.searchsorted(flat, np.arange(0, (nrows + 1) * ncols, ncols))
    return CompressedMatrix(nrows, ncols, Layout.CSR, pointers, flat % ncols, validate=False)


def _row_skewed_coords(
    nrows: int, ncols: int, density: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    # Pareto-distributed weights produce a heavy-tailed row occupancy, then
    # rescale so the expected overall density matches the request.
    weights = rng.pareto(1.5, size=nrows) + 0.05
    weights = weights / weights.sum()
    target_nnz = density * nrows * ncols
    per_row = np.minimum(ncols, np.round(weights * target_nnz).astype(np.int64))
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    for r in range(nrows):
        count = int(per_row[r])
        if count:
            rows_out.append(np.full(count, r, dtype=np.int64))
            cols_out.append(rng.choice(ncols, size=count, replace=False).astype(np.int64))
    if not rows_out:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(rows_out), np.concatenate(cols_out)


def _banded_coords(
    nrows: int, ncols: int, density: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    # Band half-width chosen so that the band area matches the target nnz.
    target_nnz = density * nrows * ncols
    per_row = max(1, int(math.ceil(target_nnz / max(nrows, 1))))
    half_width = max(1, per_row)
    scale = ncols / max(nrows, 1)
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    for r in range(nrows):
        center = int(r * scale)
        lo = max(0, center - half_width)
        hi = min(ncols, center + half_width + 1)
        candidates = np.arange(lo, hi, dtype=np.int64)
        keep = min(len(candidates), per_row)
        if keep:
            rows_out.append(np.full(keep, r, dtype=np.int64))
            cols_out.append(rng.choice(candidates, size=keep, replace=False))
    if not rows_out:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(rows_out), np.concatenate(cols_out)


def _block_coords(
    nrows: int, ncols: int, density: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    block = max(1, min(8, nrows, ncols))
    blocks_r = math.ceil(nrows / block)
    blocks_c = math.ceil(ncols / block)
    total_blocks = blocks_r * blocks_c
    keep_blocks = min(total_blocks, max(1, _stochastic_round(density * total_blocks, rng)))
    chosen = rng.choice(total_blocks, size=keep_blocks, replace=False)
    br = chosen // blocks_c
    bc = chosen % blocks_c
    offsets_r, offsets_c = np.meshgrid(np.arange(block), np.arange(block), indexing="ij")
    rows = (br[:, None, None] * block + offsets_r[None]).ravel()
    cols = (bc[:, None, None] * block + offsets_c[None]).ravel()
    keep = (rows < nrows) & (cols < ncols)
    return rows[keep].astype(np.int64), cols[keep].astype(np.int64)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _stochastic_round(x: float, rng: np.random.Generator) -> int:
    """Round ``x`` to an integer, randomly breaking the fractional part.

    Keeps the expected nnz equal to the target even for very small counts
    (important for the extremely sparse NLP layers in Table 2).
    """
    base = int(math.floor(x))
    frac = x - base
    return base + (1 if rng.random() < frac else 0)

