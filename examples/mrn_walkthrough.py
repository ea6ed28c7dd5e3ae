"""Walk through the paper's Figs. 5-7 on a tiny 4-multiplier Flexagon.

Run with::

    python examples/mrn_walkthrough.py

Using the same example matrices as the paper's walk-through (Fig. 2), the
script shows the three execution styles on the tick-level model of the
Merger-Reduction Network (MRN):

* Inner Product  — dot products reduced by the MRN in adder mode,
* Outer Product  — partial-sum fibers staged per output row (the PSRAM's
  role) and merged by the MRN in comparator mode,
* Gustavson      — scaled B fibers merged on the fly, row by row.

Each walkthrough checks that the C it assembles equals ``A @ B``.
"""

import numpy as np

from repro.arch.mrn import MergerReductionNetwork
from repro.sparse import csr_from_dense, csc_from_dense
from repro.sparse.fiber import Fiber


def paper_example_matrices():
    """The 4x4 example operands used throughout Section 3.2 (dense form)."""
    a = np.array([
        [0.0, 2.0, 0.0, 0.0],
        [1.0, 0.0, 3.0, 4.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    b = np.array([
        [0.0, 5.0, 0.0, 0.0],
        [6.0, 0.0, 7.0, 0.0],
        [8.0, 0.0, 9.0, 0.0],
        [1.0, 0.0, 0.0, 2.0],
    ])
    return a, b


def inner_product_walkthrough(a_dense, b_dense) -> None:
    print("=== Inner Product(M): stationary rows of A, streamed columns of B ===")
    a = csr_from_dense(a_dense)
    b = csc_from_dense(b_dense)
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for m in range(a.nrows):
        a_fiber = a.fiber(m)
        if a_fiber.is_empty():
            continue
        for n in range(b.major_dim):
            b_fiber = b.fiber(n)
            # The multipliers hold A's row; each effectual intersection
            # multiplies one streamed element of B's column.
            products = [
                a_fiber.value_at(coord) * b_fiber.value_at(coord)
                for coord in a_fiber.intersect_coords(b_fiber)
            ]
            if products:
                c[m, n], cycles = mrn.reduce(products)
                print(f"  C[{m},{n}] = {c[m, n]:g}  "
                      f"({len(products)} products reduced in {cycles} tree cycles)")
    assert np.allclose(c, a_dense @ b_dense)
    print()


def outer_product_walkthrough(a_dense, b_dense) -> None:
    print("=== Outer Product(M): psum fibers staged per output row, then merged ===")
    a = csc_from_dense(a_dense)
    b = csr_from_dense(b_dense)
    # Streaming phase: every stationary scalar A[m, k] scales the fiber B[k, :]
    # into one partial-sum fiber of output row m.
    psums: dict[int, list[Fiber]] = {}
    for k in range(a.major_dim):
        for m, a_value in a.fiber(k):
            psums.setdefault(m, []).append(b.fiber(k).scaled(a_value))
    # Merging phase: row by row, merge the row's psum fibers on the MRN.
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for row in sorted(psums):
        merged, cycles = mrn.merge(psums[row])
        for col, value in merged:
            c[row, col] = value
        rendered = ", ".join(f"C[{row},{col}]={v:g}" for col, v in merged)
        print(f"  row {row}: merged {len(psums[row])} psum fibers in {cycles} cycles "
              f"-> {rendered}")
    assert np.allclose(c, a_dense @ b_dense)
    print()


def gustavson_walkthrough(a_dense, b_dense) -> None:
    print("=== Gustavson(M): scaled B rows merged on the fly, row by row ===")
    a = csr_from_dense(a_dense)
    b = csr_from_dense(b_dense)
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for m in range(a.nrows):
        a_fiber = a.fiber(m)
        if a_fiber.is_empty():
            continue
        scaled = [b.fiber(k).scaled(value) for k, value in a_fiber]
        merged, cycles = mrn.merge(scaled)
        for col, value in merged:
            c[m, col] = value
        rendered = ", ".join(f"C[{m},{col}]={v:g}" for col, v in merged)
        print(f"  row {m}: merged {len(scaled)} scaled fibers in {cycles} cycles -> {rendered}")
    assert np.allclose(c, a_dense @ b_dense)
    print()


def main() -> None:
    a_dense, b_dense = paper_example_matrices()
    expected = a_dense @ b_dense
    print("Reference C = A x B:")
    print(expected)
    print()
    inner_product_walkthrough(a_dense, b_dense)
    outer_product_walkthrough(a_dense, b_dense)
    gustavson_walkthrough(a_dense, b_dense)
    print("All three dataflows produce C = A x B, using the same MRN substrate.")


if __name__ == "__main__":
    main()
