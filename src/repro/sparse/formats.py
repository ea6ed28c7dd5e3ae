"""Compressed matrix formats (CSR / CSC) built on top of fibers.

The paper treats CSR and CSC as one compression method viewed along two
different major axes (Section 2.1): three one-dimensional tensors — a pointer
vector, an index vector and a data vector.  ``CompressedMatrix`` captures that
directly and exposes the matrix as a sequence of fibers along its major axis,
which is how every dataflow in the accelerator consumes it.
"""

from __future__ import annotations

import enum
import weakref
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.sparse.fiber import Element, Fiber

#: Bytes used by one element on chip: a 32-bit word holds value + coordinate
#: (Table 5, "Total Word Size (Value+Coordinate) 32 bits").
ELEMENT_BYTES = 4
#: Bytes used by one pointer entry in the pointer vector.
POINTER_BYTES = 4


def _frozen(array_like, dtype) -> np.ndarray:
    """A read-only int/float array over ``array_like``, without copying.

    When ``asarray`` had to convert, the fresh array is simply frozen; when
    the caller's own ndarray came through unchanged, a zero-copy *view* is
    frozen instead, so the caller's handle keeps its writability (freezing
    an object the constructor does not own would be a visible side effect).
    """
    arr = np.asarray(array_like, dtype=dtype)
    if arr.flags.writeable:
        if arr is array_like:
            arr = arr.view()
        arr.setflags(write=False)
    return arr


class Layout(enum.Enum):
    """Major-axis layout of a compressed matrix."""

    CSR = "csr"
    CSC = "csc"

    @property
    def major_is_row(self) -> bool:
        """True when fibers run along rows (CSR)."""
        return self is Layout.CSR

    @property
    def other(self) -> "Layout":
        """The opposite layout."""
        return Layout.CSC if self is Layout.CSR else Layout.CSR

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


class CompressedMatrix:
    """A sparse matrix stored in CSR or CSC form.

    Parameters
    ----------
    nrows, ncols:
        Logical (uncompressed) dimensions.
    layout:
        ``Layout.CSR`` (row-major fibers) or ``Layout.CSC`` (column-major).
    pointers:
        ``major_dim + 1`` monotonically non-decreasing offsets into
        ``indices`` / ``values``.
    indices:
        The minor-axis coordinate of each stored element.
    values:
        The value of each stored element.
    """

    # __weakref__ lets the runtime memoize content digests per instance
    # (repro.runtime.jobs) without keeping matrices alive.
    __slots__ = ("nrows", "ncols", "layout", "pointers", "indices", "values", "__weakref__")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        layout: Layout,
        pointers: Sequence[int],
        indices: Sequence[int],
        values: Sequence[float],
        *,
        validate: bool = True,
    ) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.layout = layout
        # Matrices are immutable by contract: instances (and zero-copy
        # layout/transpose views sharing these arrays) are memoized and
        # shared across jobs, so an in-place edit would silently corrupt
        # other results.  Freezing turns that into an immediate error.
        self.pointers = _frozen(pointers, np.int64)
        self.indices = _frozen(indices, np.int64)
        self.values = _frozen(values, np.float64)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Validation and basic properties
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        major = self.major_dim
        minor = self.minor_dim
        if len(self.pointers) != major + 1:
            raise ValueError(
                f"pointer vector must have {major + 1} entries, got {len(self.pointers)}"
            )
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have the same length")
        if major and (self.pointers[0] != 0 or self.pointers[-1] != len(self.indices)):
            raise ValueError("pointer vector must start at 0 and end at nnz")
        if np.any(np.diff(self.pointers) < 0):
            raise ValueError("pointer vector must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= minor
        ):
            raise ValueError("minor indices out of range")
        # Coordinates within each fiber must be strictly increasing: a
        # coordinate may only be <= its predecessor where a new fiber starts.
        if len(self.indices) > 1:
            fiber_of = np.repeat(
                np.arange(major, dtype=np.int64), np.diff(self.pointers)
            )
            within_fiber = fiber_of[1:] == fiber_of[:-1]
            if np.any(within_fiber & (np.diff(self.indices) <= 0)):
                raise ValueError("fiber coordinates must be strictly increasing")

    @property
    def shape(self) -> tuple[int, int]:
        """The ``(nrows, ncols)`` logical shape."""
        return (self.nrows, self.ncols)

    @property
    def major_dim(self) -> int:
        """Extent of the major (fiber) axis."""
        return self.nrows if self.layout.major_is_row else self.ncols

    @property
    def minor_dim(self) -> int:
        """Extent of the minor (within-fiber coordinate) axis."""
        return self.ncols if self.layout.major_is_row else self.nrows

    @property
    def nnz(self) -> int:
        """Number of stored non-zero elements."""
        return int(len(self.values))

    @property
    def density(self) -> float:
        """Fraction of non-zero entries, in ``[0, 1]``."""
        total = self.nrows * self.ncols
        return self.nnz / total if total else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries, in ``[0, 1]`` (the paper reports this in %)."""
        return 1.0 - self.density

    def compressed_size_bytes(self) -> int:
        """On-chip footprint: data + index + pointer vectors.

        Values and coordinates each use :data:`ELEMENT_BYTES` /2 in hardware
        (packed 32-bit word per element); here we charge one packed word per
        element plus the pointer vector, matching how the paper reports
        compressed matrix sizes.
        """
        return self.nnz * ELEMENT_BYTES + (self.major_dim + 1) * POINTER_BYTES

    # ------------------------------------------------------------------
    # Fiber access
    # ------------------------------------------------------------------
    def fiber(self, major_index: int) -> Fiber:
        """Return the fiber (compressed row or column) at ``major_index``."""
        if not 0 <= major_index < self.major_dim:
            raise IndexError(
                f"fiber index {major_index} out of range for major dim {self.major_dim}"
            )
        start = int(self.pointers[major_index])
        end = int(self.pointers[major_index + 1])
        fiber = Fiber()
        fiber._elements = [
            Element(int(c), float(v))
            for c, v in zip(self.indices[start:end], self.values[start:end])
        ]
        return fiber

    def fiber_nnz(self, major_index: int) -> int:
        """Number of stored elements in a given fiber, without materialising it."""
        return int(self.pointers[major_index + 1] - self.pointers[major_index])

    def iter_nonempty_fibers(self) -> Iterator[tuple[int, Fiber]]:
        """Yield only the fibers that contain at least one element."""
        for major in range(self.major_dim):
            if self.fiber_nnz(major):
                yield major, self.fiber(major)

    def iter_elements(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(row, col, value)`` triples in major-axis order."""
        for major in range(self.major_dim):
            start = int(self.pointers[major])
            end = int(self.pointers[major + 1])
            for minor, value in zip(self.indices[start:end], self.values[start:end]):
                if self.layout.major_is_row:
                    yield major, int(minor), float(value)
                else:
                    yield int(minor), major, float(value)

    def row(self, r: int) -> Fiber:
        """Return row ``r`` as a fiber regardless of layout (may be O(nnz) for CSC)."""
        if self.layout.major_is_row:
            return self.fiber(r)
        return Fiber(
            ((c, v) for rr, c, v in self.iter_elements() if rr == r), sort=True
        )

    def col(self, c: int) -> Fiber:
        """Return column ``c`` as a fiber regardless of layout (may be O(nnz) for CSR)."""
        if not self.layout.major_is_row:
            return self.fiber(c)
        return Fiber(
            ((r, v) for r, cc, v in self.iter_elements() if cc == c), sort=True
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Expand into a dense ``numpy`` array (used for validation only)."""
        dense = np.zeros((self.nrows, self.ncols), dtype=np.float64)
        for r, c, v in self.iter_elements():
            dense[r, c] = v
        return dense

    def with_layout(self, layout: Layout) -> "CompressedMatrix":
        """Return an equivalent matrix stored in ``layout``.

        This is the *explicit format conversion* the paper's inter-layer
        dataflow mechanism avoids in hardware; in software we provide it both
        as a utility and to model the cost of explicit conversions.

        Matrices are treated as immutable once built, so the converted view
        is memoized per instance: the engine (and the mapper's candidate
        trials) can re-request the CSR/CSC view of the same operand without
        paying the conversion again.
        """
        if layout is self.layout:
            return self
        return cached_derived(layout.value, lambda: self._convert_layout(layout), self)

    def _convert_layout(self, layout: Layout) -> "CompressedMatrix":
        major_dim = self.major_dim
        counts = np.diff(self.pointers)
        majors = np.repeat(np.arange(major_dim, dtype=np.int64), counts)
        if self.layout.major_is_row:
            rows, cols = majors, self.indices
        else:
            rows, cols = self.indices, majors
        return matrix_from_arrays(
            self.nrows, self.ncols, rows, cols, self.values, layout=layout
        )

    def transposed(self) -> "CompressedMatrix":
        """Return the transpose, keeping the same physical storage interpretation.

        A CSR matrix transposed becomes a CSC matrix with rows and columns
        swapped but identical pointer/index/value vectors, which is why the
        paper can treat CSR and CSC with the same control logic.  The view is
        zero-copy (shared storage arrays) and memoized per instance.
        """
        return cached_derived("transposed", self._transpose, self)

    def _transpose(self) -> "CompressedMatrix":
        return CompressedMatrix(
            nrows=self.ncols,
            ncols=self.nrows,
            layout=self.layout.other,
            pointers=self.pointers,
            indices=self.indices,
            values=self.values,
            # Shares this matrix's (already validated) storage arrays.
            validate=False,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.layout is other.layout
            and np.array_equal(self.pointers, other.pointers)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"CompressedMatrix(shape={self.shape}, layout={self.layout}, "
            f"nnz={self.nnz}, density={self.density:.4f})"
        )


# ----------------------------------------------------------------------
# Per-instance derived-value memoization
# ----------------------------------------------------------------------
#: ``(kind, id(owner), ...) -> ((weakref(owner), ...), value)``.  Keyed by
#: ``id`` because ``CompressedMatrix`` defines ``__eq__`` without
#: ``__hash__``; the weakref callbacks evict an entry when any owner is
#: collected, so a recycled id can never alias.  Values keep their owners
#: alive only through this table, and the table never outlives the owners.
_DERIVED_CACHE: dict[tuple, tuple] = {}


def cached_derived(kind: str, build, *owners):
    """Memoize ``build()`` per live ``owners`` instance tuple.

    Shared by the layout/transpose views below and by derived per-pair
    structure elsewhere (e.g. the engine's output-row counts), so the
    subtle id+weakref eviction logic exists exactly once.
    """
    # ``id`` here is only a *memo* key for the per-instance derived value —
    # it never reaches a content digest (key paths that traverse a derived
    # matrix hash its stored arrays), so cached results stay process-
    # independent.
    key = (kind,) + tuple(id(owner) for owner in owners)  # repro: allow[determinism]
    entry = _DERIVED_CACHE.get(key)
    if entry is not None and all(
        ref() is owner for ref, owner in zip(entry[0], owners)
    ):
        return entry[1]
    value = build()
    evict = lambda _ref, key=key: _DERIVED_CACHE.pop(key, None)  # noqa: E731
    _DERIVED_CACHE[key] = (
        tuple(weakref.ref(owner, evict) for owner in owners),
        value,
    )
    return value


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def empty_matrix(nrows: int, ncols: int, layout: Layout = Layout.CSR) -> CompressedMatrix:
    """Create an all-zero compressed matrix of the requested shape."""
    major = nrows if layout.major_is_row else ncols
    return CompressedMatrix(nrows, ncols, layout, [0] * (major + 1), [], [])


def matrix_from_coo(
    nrows: int,
    ncols: int,
    triples: Iterable[tuple[int, int, float]],
    layout: Layout = Layout.CSR,
    accumulate_duplicates: bool = True,
) -> CompressedMatrix:
    """Build a compressed matrix from ``(row, col, value)`` triples.

    Duplicate coordinates are accumulated (added) by default, mirroring how
    partial sums combine.  Zero values are kept out of the compressed
    representation.
    """
    entries: dict[tuple[int, int], float] = {}
    for r, c, v in triples:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"coordinate ({r}, {c}) outside shape ({nrows}, {ncols})")
        key = (int(r), int(c))
        if accumulate_duplicates and key in entries:
            entries[key] += float(v)
        else:
            entries[key] = float(v)

    major_of = (lambda r, c: r) if layout.major_is_row else (lambda r, c: c)
    minor_of = (lambda r, c: c) if layout.major_is_row else (lambda r, c: r)
    ordered = sorted(
        ((major_of(r, c), minor_of(r, c), v) for (r, c), v in entries.items() if v != 0.0)
    )

    major_dim = nrows if layout.major_is_row else ncols
    pointers = [0] * (major_dim + 1)
    indices: list[int] = []
    values: list[float] = []
    for major, minor, value in ordered:
        pointers[major + 1] += 1
        indices.append(minor)
        values.append(value)
    for i in range(major_dim):
        pointers[i + 1] += pointers[i]
    return CompressedMatrix(nrows, ncols, layout, pointers, indices, values)


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys``, all below ``bound``.

    The permutation is the one ``np.argsort(keys, kind="stable")`` returns.
    NumPy's stable sort of 16-bit integers is a linear-time radix sort, so
    keys that fit are cast to ``uint16`` first.  ``bound`` must be a true
    upper bound: the cast wraps larger values silently.
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def matrix_from_arrays(
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    layout: Layout = Layout.CSR,
) -> CompressedMatrix:
    """Vectorised COO -> compressed constructor for large matrices.

    Equivalent to :func:`matrix_from_coo` (duplicates accumulated, zeros
    dropped) but implemented entirely with numpy so that the synthetic
    workload generator and the layout converter stay fast for matrices with
    millions of non-zeros.  Entries are ordered by two :func:`stable_order`
    passes (minor, then major), which for dimensions up to ``2**16`` are
    radix sorts; duplicates, when any, are summed in that order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (len(rows) == len(cols) == len(values)):
        raise ValueError("rows, cols and values must have the same length")
    if len(rows) and (
        rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
    ):
        raise ValueError("coordinates outside the matrix shape")

    major = rows if layout.major_is_row else cols
    minor = cols if layout.major_is_row else rows
    major_dim = nrows if layout.major_is_row else ncols
    minor_dim = ncols if layout.major_is_row else nrows

    if len(values) == 0:
        return empty_matrix(nrows, ncols, layout)

    # Lexicographic (major, minor) order, ties in input order.
    order = stable_order(minor, minor_dim)
    order = order[stable_order(major[order], major_dim)]
    major, minor, values = major[order], minor[order], values[order]

    # Accumulate duplicates: group boundaries where (major, minor) changes.
    new_group = np.empty(len(major), dtype=bool)
    new_group[0] = True
    new_group[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    if new_group.all():
        # Same bits as adding each value into a zero: -0.0 becomes +0.0.
        summed = 0.0 + values
    else:
        group_starts = np.flatnonzero(new_group)
        group_ids = np.cumsum(new_group) - 1
        summed = np.zeros(len(group_starts), dtype=np.float64)
        np.add.at(summed, group_ids, values)
        major = major[group_starts]
        minor = minor[group_starts]

    keep = summed != 0.0
    if not keep.all():
        major, minor, summed = major[keep], minor[keep], summed[keep]

    counts = np.bincount(major, minlength=major_dim)
    pointers = np.zeros(major_dim + 1, dtype=np.int64)
    np.cumsum(counts, out=pointers[1:])
    # The ordering + dedup above produce canonical storage (in-range,
    # grouped, strictly increasing within fibers), so re-validation is
    # redundant.
    return CompressedMatrix(
        nrows, ncols, layout, pointers, minor, summed, validate=False
    )


def matrix_from_fibers(
    nrows: int,
    ncols: int,
    fibers: dict[int, Fiber],
    layout: Layout = Layout.CSR,
) -> CompressedMatrix:
    """Build a compressed matrix from a mapping of major index to fiber."""
    major_dim = nrows if layout.major_is_row else ncols
    minor_dim = ncols if layout.major_is_row else nrows
    pointers = [0] * (major_dim + 1)
    indices: list[int] = []
    values: list[float] = []
    for major in range(major_dim):
        fiber = fibers.get(major)
        if fiber is not None:
            for coord, value in fiber:
                if coord >= minor_dim:
                    raise ValueError(
                        f"coordinate {coord} outside minor dimension {minor_dim}"
                    )
                if value != 0.0:
                    indices.append(coord)
                    values.append(value)
        pointers[major + 1] = len(indices)
    return CompressedMatrix(nrows, ncols, layout, pointers, indices, values)


def csr_from_dense(dense: np.ndarray, tolerance: float = 0.0) -> CompressedMatrix:
    """Compress a dense array into CSR, dropping entries with ``|v| <= tolerance``."""
    return _from_dense(dense, Layout.CSR, tolerance)


def csc_from_dense(dense: np.ndarray, tolerance: float = 0.0) -> CompressedMatrix:
    """Compress a dense array into CSC, dropping entries with ``|v| <= tolerance``."""
    return _from_dense(dense, Layout.CSC, tolerance)


def _from_dense(dense: np.ndarray, layout: Layout, tolerance: float) -> CompressedMatrix:
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("only 2-D arrays can be compressed")
    nrows, ncols = dense.shape
    triples = [
        (int(r), int(c), float(dense[r, c]))
        for r in range(nrows)
        for c in range(ncols)
        if abs(dense[r, c]) > tolerance
    ]
    return matrix_from_coo(nrows, ncols, triples, layout=layout)
