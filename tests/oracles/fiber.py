"""Fibers: the unit of sparse data movement in Flexagon.

Following the terminology of the paper (Section 2.1, borrowed from GAMMA and
ExTensor), a *fiber* is one compressed row (CSR) or column (CSC) of a sparse
matrix: an ordered list of ``(coordinate, value)`` duples sorted by
coordinate.  A single duple is called an *element*.

Fibers are what the accelerator's memory controllers read and write, what the
multipliers scale, and what the Merger-Reduction Network merges, so the class
below provides exactly the operations those components need:

* coordinate-sorted construction and validation,
* scaling by a scalar (the Outer-Product / Gustavson multiply step),
* two-way and k-way merge with accumulation of equal coordinates (what the
  MRN comparator nodes implement in hardware),
* sorted intersection (what the Inner-Product dataflow needs to align
  effectual operands), and
* dot product of two fibers (a full Inner-Product reduction).

The functions at the end read a :class:`~repro.sparse.formats.CompressedMatrix`
as fibers (:func:`fiber_of`, :func:`row_of`, :func:`col_of`,
:func:`iter_nonempty_fibers`) and build one from them
(:func:`matrix_from_fibers`).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.sparse.formats import CompressedMatrix, Layout


class Element(NamedTuple):
    """A single ``(coordinate, value)`` duple inside a fiber."""

    coord: int
    value: float

    def scaled(self, scalar: float) -> "Element":
        """Return a copy of this element with its value multiplied by ``scalar``."""
        return Element(self.coord, self.value * scalar)


class Fiber:
    """A coordinate-sorted sequence of non-zero elements.

    The constructor accepts any iterable of ``(coord, value)`` pairs.  By
    default the input is validated to be strictly sorted by coordinate with no
    duplicates (the invariant every hardware unit in the paper relies on);
    pass ``sort=True`` to accept unsorted input and have duplicates
    accumulated.
    """

    __slots__ = ("_elements",)

    def __init__(
        self,
        elements: Iterable[tuple[int, float]] = (),
        *,
        sort: bool = False,
    ) -> None:
        elems = [Element(int(c), float(v)) for c, v in elements]
        if sort:
            elems = _accumulate_sorted(sorted(elems, key=lambda e: e.coord))
        else:
            _validate_sorted(elems)
        self._elements: list[Element] = elems

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> Element:
        return self._elements[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fiber):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:  # pragma: no cover - fibers are mutable-ish, rarely hashed
        return hash(tuple(self._elements))

    def __repr__(self) -> str:
        inner = ", ".join(f"({e.coord}, {e.value:g})" for e in self._elements[:8])
        if len(self._elements) > 8:
            inner += ", ..."
        return f"Fiber([{inner}])"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of non-zero elements stored in the fiber."""
        return len(self._elements)

    @property
    def coords(self) -> list[int]:
        """The coordinates of the stored elements, in ascending order."""
        return [e.coord for e in self._elements]

    @property
    def values(self) -> list[float]:
        """The values of the stored elements, ordered by coordinate."""
        return [e.value for e in self._elements]

    def is_empty(self) -> bool:
        """Return ``True`` when the fiber holds no elements."""
        return not self._elements

    def value_at(self, coord: int, default: float = 0.0) -> float:
        """Return the value stored at ``coord`` or ``default`` when absent.

        Uses binary search, mirroring the paper's observation that fibers are
        always kept coordinate-sorted.
        """
        lo, hi = 0, len(self._elements)
        while lo < hi:
            mid = (lo + hi) // 2
            c = self._elements[mid].coord
            if c == coord:
                return self._elements[mid].value
            if c < coord:
                lo = mid + 1
            else:
                hi = mid
        return default

    # ------------------------------------------------------------------
    # Dataflow building blocks
    # ------------------------------------------------------------------
    def scaled(self, scalar: float) -> "Fiber":
        """Return a new fiber with every value multiplied by ``scalar``.

        This is the elementary operation a multiplier performs in the OP and
        Gustavson dataflows: one stationary scalar linearly combines an entire
        streamed fiber.
        """
        out = Fiber()
        out._elements = [e.scaled(scalar) for e in self._elements]
        return out

    def merged(self, other: "Fiber") -> "Fiber":
        """Two-way merge with accumulation on equal coordinates.

        Equal coordinates are added together; otherwise the element with the
        smaller coordinate is emitted first.  This is exactly the behaviour of
        one MRN comparator node (Section 3.2.2).
        """
        out: list[Element] = []
        i = j = 0
        a, b = self._elements, other._elements
        while i < len(a) and j < len(b):
            ca, cb = a[i].coord, b[j].coord
            if ca == cb:
                out.append(Element(ca, a[i].value + b[j].value))
                i += 1
                j += 1
            elif ca < cb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        result = Fiber()
        result._elements = out
        return result

    def intersect_coords(self, other: "Fiber") -> list[int]:
        """Return the coordinates present in both fibers (sorted).

        The Inner-Product dataflow needs this intersection to know which
        multiplications are effectual.
        """
        out: list[int] = []
        i = j = 0
        a, b = self._elements, other._elements
        while i < len(a) and j < len(b):
            ca, cb = a[i].coord, b[j].coord
            if ca == cb:
                out.append(ca)
                i += 1
                j += 1
            elif ca < cb:
                i += 1
            else:
                j += 1
        return out

    def dot(self, other: "Fiber") -> tuple[float, int]:
        """Sparse dot product with ``other``.

        Returns ``(value, effectual_multiplies)`` where the second member is
        the number of coordinate matches — i.e. the number of multiplications
        a hardware intersection unit would actually issue.
        """
        total = 0.0
        matches = 0
        i = j = 0
        a, b = self._elements, other._elements
        while i < len(a) and j < len(b):
            ca, cb = a[i].coord, b[j].coord
            if ca == cb:
                total += a[i].value * b[j].value
                matches += 1
                i += 1
                j += 1
            elif ca < cb:
                i += 1
            else:
                j += 1
        return total, matches

    def pruned(self, tolerance: float = 0.0) -> "Fiber":
        """Return a copy with elements whose magnitude is <= ``tolerance`` removed."""
        out = Fiber()
        out._elements = [e for e in self._elements if abs(e.value) > tolerance]
        return out

    def to_dense(self, length: int) -> list[float]:
        """Expand the fiber into a dense list of ``length`` values."""
        dense = [0.0] * length
        for coord, value in self._elements:
            if coord >= length:
                raise ValueError(
                    f"coordinate {coord} does not fit in dense vector of length {length}"
                )
            dense[coord] = value
        return dense

    # ------------------------------------------------------------------
    # Class-level helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, values: Sequence[float], tolerance: float = 0.0) -> "Fiber":
        """Build a fiber from a dense vector, dropping near-zero entries."""
        return cls(
            (i, v) for i, v in enumerate(values) if abs(v) > tolerance
        )

    @staticmethod
    def merge_many(fibers: Sequence["Fiber"]) -> "Fiber":
        """K-way merge with accumulation, the job of a full MRN merge pass.

        Implemented with a heap so the element emission order matches what a
        merge tree produces; ties on coordinate are accumulated into a single
        output element.
        """
        streams = [f._elements for f in fibers if f._elements]
        if not streams:
            return Fiber()
        heap: list[tuple[int, int, int]] = []
        for s, stream in enumerate(streams):
            heapq.heappush(heap, (stream[0].coord, s, 0))
        out: list[Element] = []
        while heap:
            coord, s, idx = heapq.heappop(heap)
            value = streams[s][idx].value
            if out and out[-1].coord == coord:
                out[-1] = Element(coord, out[-1].value + value)
            else:
                out.append(Element(coord, value))
            if idx + 1 < len(streams[s]):
                heapq.heappush(heap, (streams[s][idx + 1].coord, s, idx + 1))
        result = Fiber()
        result._elements = out
        return result


def _validate_sorted(elements: list[Element]) -> None:
    """Raise ``ValueError`` unless coordinates are strictly increasing."""
    for previous, current in zip(elements, elements[1:]):
        if current.coord <= previous.coord:
            raise ValueError(
                "fiber elements must be strictly sorted by coordinate; "
                f"found {previous.coord} followed by {current.coord} "
                "(pass sort=True to sort and accumulate automatically)"
            )


def _accumulate_sorted(elements: list[Element]) -> list[Element]:
    """Collapse duplicate coordinates in an already-sorted element list."""
    out: list[Element] = []
    for element in elements:
        if out and out[-1].coord == element.coord:
            out[-1] = Element(element.coord, out[-1].value + element.value)
        else:
            out.append(element)
    return out


# ----------------------------------------------------------------------
# Compressed matrices as fibers
# ----------------------------------------------------------------------
def fiber_of(matrix: CompressedMatrix, major_index: int) -> Fiber:
    """Return the fiber (compressed row or column) at ``major_index``."""
    if not 0 <= major_index < matrix.major_dim:
        raise IndexError(
            f"fiber index {major_index} out of range for major dim {matrix.major_dim}"
        )
    start = int(matrix.pointers[major_index])
    end = int(matrix.pointers[major_index + 1])
    fiber = Fiber()
    fiber._elements = [
        Element(int(c), float(v))
        for c, v in zip(matrix.indices[start:end], matrix.values[start:end])
    ]
    return fiber


def iter_nonempty_fibers(matrix: CompressedMatrix) -> Iterator[tuple[int, Fiber]]:
    """Yield only the fibers that contain at least one element."""
    for major in range(matrix.major_dim):
        if matrix.fiber_nnz(major):
            yield major, fiber_of(matrix, major)


def row_of(matrix: CompressedMatrix, r: int) -> Fiber:
    """Return row ``r`` as a fiber regardless of layout (may be O(nnz) for CSC)."""
    if matrix.layout.major_is_row:
        return fiber_of(matrix, r)
    return Fiber(
        ((c, v) for rr, c, v in matrix.iter_elements() if rr == r), sort=True
    )


def col_of(matrix: CompressedMatrix, c: int) -> Fiber:
    """Return column ``c`` as a fiber regardless of layout (may be O(nnz) for CSR)."""
    if not matrix.layout.major_is_row:
        return fiber_of(matrix, c)
    return Fiber(
        ((r, v) for r, cc, v in matrix.iter_elements() if cc == c), sort=True
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
