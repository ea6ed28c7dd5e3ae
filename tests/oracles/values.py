"""The seam that gives a structure-only operand its values.

A :class:`~repro.sparse.formats.CompressedMatrix` stores positions only: no
cycle or traffic count of the product reads a value.  The oracles that check
``C = A·B`` need values, and read every one through :func:`value_at`, which
gives a stored element its value from its ``(row, col)``:

* by default, :func:`default_values`: deterministic, never zero, not
  constant, and symmetric in row and column.  The N-stationary dataflows run
  on ``transposed()`` views, and symmetry gives every position of such a view
  (and of a ``with_layout`` view) the value it has in the original operand;
* or from a dense array the caller supplies for a hand-written operand (the
  Fig. 2 example, say), read at the same positions.  A transposed view reads
  the transposed array (:func:`transposed_values`).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.formats import CompressedMatrix


def default_values(rows, cols) -> np.ndarray:
    """``1 + ((row + 1)(col + 1) mod 7)``: small integers, so sums are exact."""
    return 1.0 + (np.multiply(np.add(rows, 1), np.add(cols, 1)) % 7)


def value_at(rows, cols, values=None) -> np.ndarray:
    """The value at each position ``(rows, cols)``: ``values[rows, cols]``
    for a supplied dense array, :func:`default_values` otherwise."""
    if values is None:
        return default_values(rows, cols)
    return np.asarray(values, dtype=np.float64)[rows, cols]


def transposed_values(values):
    """The value source of a ``transposed()`` view."""
    return None if values is None else np.asarray(values).T


def positions(matrix: CompressedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The ``(rows, cols)`` of every stored element, in storage order."""
    majors = np.repeat(np.arange(matrix.major_dim), np.diff(matrix.pointers))
    if matrix.layout.major_is_row:
        return majors, matrix.indices
    return matrix.indices, majors


def dense_of(matrix: CompressedMatrix, values=None) -> np.ndarray:
    """``matrix`` as a dense array, each stored position holding its value."""
    dense = np.zeros(matrix.shape)
    rows, cols = positions(matrix)
    dense[rows, cols] = value_at(rows, cols, values)
    return dense
