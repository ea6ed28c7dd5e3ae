"""Unit and property tests for the CSR/CSC compressed matrix formats.

Matrices store positions only; where a test needs values it reads them
through the oracles' seam (:mod:`oracles.values`).
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.fiber import (
    Fiber,
    col_of,
    fiber_of,
    iter_nonempty_fibers,
    matrix_from_fibers,
    row_of,
)
from oracles.values import dense_of, positions
from repro.sparse import (
    CompressedMatrix,
    Layout,
    csc_from_dense,
    csr_from_dense,
    empty_matrix,
    random_sparse,
)
from repro.sparse.formats import matrix_from_arrays, stable_order


def dense_strategy(max_dim=12):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim), st.integers(0, 2**31 - 1)
    ).map(_make_dense)


def _make_dense(args):
    rows, cols, seed = args
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, cols))
    mask = rng.random((rows, cols)) < 0.4
    return dense * mask


class TestConstruction:
    def test_empty_matrix(self):
        m = empty_matrix(3, 4)
        assert m.nnz == 0
        assert m.shape == (3, 4)
        assert m.density == 0.0
        assert np.array_equal(m.pointers, np.zeros(4))

    # ``matrix_from_arrays`` is the COO constructor: positions, no values.
    def test_from_coo_csr(self):
        m = matrix_from_arrays(2, 3, [1, 0, 1], [0, 1, 2])
        assert m.layout is Layout.CSR
        assert m.nnz == 3
        assert np.array_equal(m.pointers, [0, 1, 3])
        assert np.array_equal(m.indices, [1, 0, 2])

    def test_from_coo_accumulates_duplicates(self):
        m = matrix_from_arrays(2, 2, [0, 0], [0, 0])
        assert m.nnz == 1

    def test_from_coo_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_arrays(2, 2, [2], [0])

    def test_invalid_pointer_vector_rejected(self):
        with pytest.raises(ValueError):
            CompressedMatrix(2, 2, Layout.CSR, [0, 1], [0])

    def test_unsorted_fiber_rejected(self):
        with pytest.raises(ValueError):
            CompressedMatrix(1, 3, Layout.CSR, [0, 2], [2, 0])

    def test_matrix_from_fibers(self):
        fibers = {0: Fiber([(1, 2.0)]), 2: Fiber([(0, 1.0), (2, -1.0)])}
        m = matrix_from_fibers(3, 3, fibers)
        expected = np.array([[0, 2.0, 0], [0, 0, 0], [1.0, 0, -1.0]])
        assert np.array_equal(m, expected)

    def test_matrix_from_fibers_out_of_range(self):
        with pytest.raises(ValueError):
            matrix_from_fibers(2, 2, {0: Fiber([(5, 1.0)])})


class TestDenseRoundtrip:
    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_csr_roundtrip(self, dense):
        m = csr_from_dense(dense)
        assert np.array_equal(dense_of(m, dense), dense)
        assert m.nnz == np.count_nonzero(dense)

    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_csc_roundtrip(self, dense):
        m = csc_from_dense(dense)
        assert m.layout is Layout.CSC
        assert np.array_equal(dense_of(m, dense), dense)
        assert m.nnz == np.count_nonzero(dense)

    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_layout_change_preserves_values(self, dense):
        csr = csr_from_dense(dense)
        csc = csr.with_layout(Layout.CSC)
        assert csc.layout is Layout.CSC
        assert np.array_equal(dense_of(csc, dense), dense)
        assert csc.nnz == csr.nnz


class TestFiberAccess:
    def setup_method(self):
        self.dense = np.array([[1.0, 0, 2.0], [0, 0, 0], [3.0, 4.0, 0]])
        self.csr = csr_from_dense(self.dense)
        self.csc = csc_from_dense(self.dense)

    def test_csr_fibers_are_rows(self):
        assert fiber_of(self.csr, 0).coords == [0, 2]
        assert fiber_of(self.csr, 1).is_empty()
        assert fiber_of(self.csr, 2, self.dense).values == [3.0, 4.0]

    def test_csc_fibers_are_columns(self):
        assert fiber_of(self.csc, 0).coords == [0, 2]
        assert fiber_of(self.csc, 0, self.dense).values == [1.0, 3.0]
        assert fiber_of(self.csc, 2).coords == [0]

    def test_fiber_nnz_matches_fiber(self):
        for i in range(3):
            assert self.csr.fiber_nnz(i) == fiber_of(self.csr, i).nnz

    def test_fiber_index_out_of_range(self):
        with pytest.raises(IndexError):
            fiber_of(self.csr, 3)

    def test_row_and_col_work_for_both_layouts(self):
        for m in (self.csr, self.csc):
            assert row_of(m, 2).coords == [0, 1]
            assert col_of(m, 0).coords == [0, 2]

    def test_positions_cover_all_nonzeros(self):
        for m in (self.csr, self.csc):
            rows, cols = positions(m)
            assert set(zip(rows.tolist(), cols.tolist())) == {(0, 0), (0, 2), (2, 0), (2, 1)}
            assert np.array_equal(dense_of(m, self.dense), self.dense)

    def test_iter_nonempty_fibers_skips_empty(self):
        indices = [i for i, _ in iter_nonempty_fibers(self.csr)]
        assert indices == [0, 2]


class TestTransposeAndSize:
    def test_transpose_flips_shape_and_layout(self):
        m = random_sparse(5, 8, 0.3, seed=3)
        t = m.transposed()
        assert t.shape == (8, 5)
        assert t.layout is m.layout.other
        assert np.array_equal(dense_of(t), dense_of(m).T)

    def test_double_transpose_is_identity(self):
        m = random_sparse(6, 4, 0.5, seed=4)
        assert np.array_equal(dense_of(m.transposed().transposed()), dense_of(m))


class TestGeneration:
    @pytest.mark.parametrize("pattern", ["uniform", "row_skewed", "banded", "block"])
    def test_patterns_hit_requested_density(self, pattern):
        from repro.sparse.generate import SparsityPattern

        m = random_sparse(
            64, 64, 0.2, pattern=SparsityPattern(pattern), seed=11
        )
        assert m.shape == (64, 64)
        # Allow generous tolerance: patterns are stochastic/structured.
        assert 0.05 <= m.density <= 0.45

    def test_zero_density_gives_empty_matrix(self):
        assert random_sparse(16, 16, 0.0, seed=1).nnz == 0

    def test_full_density_gives_dense_matrix(self):
        m = random_sparse(8, 8, 1.0, seed=1)
        assert m.nnz == 64

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            random_sparse(4, 4, 1.5)

    def test_reproducible_with_same_seed(self):
        a = random_sparse(20, 20, 0.3, seed=42)
        b = random_sparse(20, 20, 0.3, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_sparse(20, 20, 0.3, seed=1)
        b = random_sparse(20, 20, 0.3, seed=2)
        assert a != b


# ----------------------------------------------------------------------
# The radix-ordered constructor against the lexsort body it replaced
# ----------------------------------------------------------------------
def _lexsort_matrix_from_arrays(nrows, ncols, rows, cols, layout):
    """A ``lexsort`` body for ``matrix_from_arrays``: ordered positions, each once."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    major = rows if layout.major_is_row else cols
    minor = cols if layout.major_is_row else rows
    major_dim = nrows if layout.major_is_row else ncols

    if len(rows) == 0:
        return empty_matrix(nrows, ncols, layout)

    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    first = np.ones(len(major), dtype=bool)
    first[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    major, minor = major[first], minor[first]

    counts = np.bincount(major, minlength=major_dim)
    pointers = np.zeros(major_dim + 1, dtype=np.int64)
    np.cumsum(counts, out=pointers[1:])
    return CompressedMatrix(nrows, ncols, layout, pointers, minor, validate=False)


def _storage_bytes(matrix):
    return tuple(a.tobytes() for a in (matrix.pointers, matrix.indices))


class TestRadixOrderedConstructor:
    @pytest.mark.parametrize("bound", [1, 2, 255, 2**16, 2**16 + 1, 2**20])
    def test_stable_order_is_the_stable_argsort(self, bound):
        rng = np.random.default_rng(bound)
        for n in (0, 1, 7, 1000):
            keys = rng.integers(0, bound, size=n).astype(np.int64)
            assert np.array_equal(
                stable_order(keys, bound), np.argsort(keys, kind="stable")
            )

    @pytest.mark.parametrize("layout", list(Layout), ids=str)
    @pytest.mark.parametrize(
        "shape", [(1, 1), (9, 13), (120, 70), (3, 70000), (70000, 2)], ids=str
    )
    def test_matches_the_lexsort_body_bit_for_bit(self, shape, layout):
        nrows, ncols = shape
        rng = np.random.default_rng(nrows * 7 + ncols)
        for trial in range(20):
            n = int(rng.integers(0, 400))
            # Few distinct coordinates: repeat groups of 8+ positions.
            span = int(rng.choice([1, 3, 40]))
            rows = rng.integers(0, min(nrows, span), size=n)
            cols = rng.integers(0, ncols, size=n) if trial % 2 else (
                rng.integers(0, min(ncols, span), size=n)
            )
            got = matrix_from_arrays(nrows, ncols, rows, cols, layout=layout)
            want = _lexsort_matrix_from_arrays(nrows, ncols, rows, cols, layout)
            assert _storage_bytes(got) == _storage_bytes(want), trial
            got._validate()

class TestLayoutConversion:
    @staticmethod
    def _by_coo(matrix, layout):
        """The conversion through the COO constructor, position by position."""
        return matrix_from_arrays(*matrix.shape, *positions(matrix), layout=layout)

    @pytest.mark.parametrize("layout", list(Layout), ids=str)
    @pytest.mark.parametrize(
        "shape", [(1, 1), (9, 13), (120, 70), (3, 70000), (70000, 2)], ids=str
    )
    def test_matches_the_coo_constructor_bit_for_bit(self, shape, layout):
        rng = np.random.default_rng(shape[0] * 11 + shape[1])
        for density in (0.0, 0.001, 0.3):
            nnz = int(density * shape[0] * shape[1])
            flat = rng.choice(shape[0] * shape[1], size=min(nnz, 5000), replace=False)
            rows, cols = np.divmod(flat, shape[1])
            m = matrix_from_arrays(*shape, rows, cols, layout=layout)
            for view in (m, m.transposed()):
                got = view.with_layout(view.layout.other)
                assert _storage_bytes(got) == _storage_bytes(
                    self._by_coo(view, view.layout.other)
                )
                got._validate()

    def test_a_storage_is_converted_once(self, monkeypatch):
        calls = []
        convert = CompressedMatrix._convert_layout

        def counting(matrix):
            calls.append(matrix)
            return convert(matrix)

        monkeypatch.setattr(CompressedMatrix, "_convert_layout", counting)
        m = random_sparse(30, 20, 0.3, seed=9)
        t = m.transposed()
        t_csr = t.with_layout(Layout.CSR)
        m_csc = m.with_layout(Layout.CSC)
        assert len(calls) == 1
        # The later conversion is the transposed view of the earlier one, and
        # each stays memoized per instance.
        assert m_csc is t_csr.transposed()
        assert m.with_layout(Layout.CSC) is m_csc
        assert t.with_layout(Layout.CSR) is t_csr
        assert np.array_equal(dense_of(t_csr), dense_of(m).T)

    def test_the_memo_keeps_no_operand_alive(self):
        m = matrix_from_arrays(40, 30, np.arange(40) % 40, np.arange(40) % 30)
        t = m.transposed()
        converted = t.with_layout(Layout.CSR), m.with_layout(Layout.CSC)
        refs = [weakref.ref(a) for c in converted for a in (c.pointers, c.indices)]
        refs.append(weakref.ref(m.indices))
        del m, t, converted
        assert all(ref() is None for ref in refs)
