"""Unit and property tests for the fiber abstraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.fiber import Element, Fiber


def fiber_strategy(max_coord=64, max_len=20):
    """Hypothesis strategy producing valid (sorted, unique-coordinate) fibers."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=max_coord),
            st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
        ),
        max_size=max_len,
        unique_by=lambda t: t[0],
    ).map(lambda pairs: Fiber(sorted(pairs)))


class TestConstruction:
    def test_empty_fiber(self):
        f = Fiber()
        assert f.nnz == 0
        assert f.is_empty()
        assert list(f) == []

    def test_sorted_input_accepted(self):
        f = Fiber([(0, 1.0), (3, 2.0), (7, -1.5)])
        assert f.coords == [0, 3, 7]
        assert f.values == [1.0, 2.0, -1.5]

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            Fiber([(3, 1.0), (1, 2.0)])

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(ValueError):
            Fiber([(1, 1.0), (1, 2.0)])

    def test_sort_flag_sorts_and_accumulates(self):
        f = Fiber([(3, 1.0), (1, 2.0), (3, 4.0)], sort=True)
        assert f.coords == [1, 3]
        assert f.values == [2.0, 5.0]

    def test_from_dense_drops_zeros(self):
        f = Fiber.from_dense([0.0, 1.0, 0.0, -2.0])
        assert f.coords == [1, 3]
        assert f.values == [1.0, -2.0]

    def test_to_dense_roundtrip(self):
        dense = [0.0, 1.0, 0.0, -2.0, 0.0]
        assert Fiber.from_dense(dense).to_dense(5) == dense

    def test_to_dense_out_of_range(self):
        with pytest.raises(ValueError):
            Fiber([(4, 1.0)]).to_dense(3)


class TestAccessors:
    def test_value_at_present_and_absent(self):
        f = Fiber([(2, 5.0), (8, -1.0)])
        assert f.value_at(2) == 5.0
        assert f.value_at(8) == -1.0
        assert f.value_at(5) == 0.0
        assert f.value_at(5, default=9.0) == 9.0

    def test_indexing_and_len(self):
        f = Fiber([(1, 1.0), (2, 2.0)])
        assert len(f) == 2
        assert f[0] == Element(1, 1.0)
        assert f[1] == Element(2, 2.0)

    def test_equality(self):
        assert Fiber([(1, 1.0)]) == Fiber([(1, 1.0)])
        assert Fiber([(1, 1.0)]) != Fiber([(1, 2.0)])


class TestOperations:
    def test_scaled(self):
        f = Fiber([(0, 1.0), (5, -2.0)]).scaled(3.0)
        assert f.values == [3.0, -6.0]
        assert f.coords == [0, 5]

    def test_merged_disjoint(self):
        a = Fiber([(0, 1.0), (4, 2.0)])
        b = Fiber([(1, 3.0), (5, 4.0)])
        merged = a.merged(b)
        assert merged.coords == [0, 1, 4, 5]
        assert merged.values == [1.0, 3.0, 2.0, 4.0]

    def test_merged_accumulates_equal_coordinates(self):
        a = Fiber([(0, 1.0), (4, 2.0)])
        b = Fiber([(0, 3.0), (4, 4.0)])
        merged = a.merged(b)
        assert merged.coords == [0, 4]
        assert merged.values == [4.0, 6.0]

    def test_intersect_coords(self):
        a = Fiber([(0, 1.0), (2, 1.0), (5, 1.0)])
        b = Fiber([(2, 1.0), (3, 1.0), (5, 1.0)])
        assert a.intersect_coords(b) == [2, 5]

    def test_dot_product(self):
        a = Fiber([(0, 2.0), (2, 3.0), (5, 1.0)])
        b = Fiber([(2, 4.0), (5, -1.0), (7, 9.0)])
        value, matches = a.dot(b)
        assert value == pytest.approx(3.0 * 4.0 + 1.0 * -1.0)
        assert matches == 2

    def test_dot_empty(self):
        value, matches = Fiber().dot(Fiber([(1, 1.0)]))
        assert value == 0.0
        assert matches == 0

    def test_pruned(self):
        f = Fiber([(0, 0.0), (1, 1e-12), (2, 3.0)])
        assert f.pruned().coords == [1, 2]
        assert f.pruned(tolerance=1e-9).coords == [2]

    def test_merge_many_matches_sequential_merges(self):
        fibers = [
            Fiber([(0, 1.0), (3, 1.0)]),
            Fiber([(0, 2.0), (5, 1.0)]),
            Fiber([(3, 4.0)]),
        ]
        expected = fibers[0].merged(fibers[1]).merged(fibers[2])
        assert Fiber.merge_many(fibers) == expected

    def test_merge_many_empty(self):
        assert Fiber.merge_many([]).is_empty()
        assert Fiber.merge_many([Fiber(), Fiber()]).is_empty()


class TestProperties:
    @given(fiber_strategy(), fiber_strategy())
    @settings(max_examples=60, deadline=None)
    def test_merge_is_commutative(self, a, b):
        assert a.merged(b) == b.merged(a)

    @given(fiber_strategy(), fiber_strategy())
    @settings(max_examples=60, deadline=None)
    def test_merge_output_is_sorted_and_unique(self, a, b):
        merged = a.merged(b)
        coords = merged.coords
        assert coords == sorted(coords)
        assert len(coords) == len(set(coords))

    @given(fiber_strategy(), fiber_strategy())
    @settings(max_examples=60, deadline=None)
    def test_merge_preserves_dense_sum(self, a, b):
        length = 70
        dense_sum = [x + y for x, y in zip(a.to_dense(length), b.to_dense(length))]
        merged_dense = a.merged(b).to_dense(length)
        assert merged_dense == pytest.approx(dense_sum)

    @given(fiber_strategy(), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_scaling_matches_dense_scaling(self, f, scalar):
        length = 70
        expected = [scalar * v for v in f.to_dense(length)]
        assert f.scaled(scalar).to_dense(length) == pytest.approx(expected)

    @given(fiber_strategy(), fiber_strategy())
    @settings(max_examples=60, deadline=None)
    def test_dot_matches_dense_dot(self, a, b):
        length = 70
        dense = sum(x * y for x, y in zip(a.to_dense(length), b.to_dense(length)))
        value, _ = a.dot(b)
        assert value == pytest.approx(dense)

    @given(st.lists(fiber_strategy(), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_merge_many_matches_dense_sum(self, fibers):
        length = 70
        dense = [0.0] * length
        for f in fibers:
            for i, v in enumerate(f.to_dense(length)):
                dense[i] += v
        assert Fiber.merge_many(fibers).to_dense(length) == pytest.approx(dense)
