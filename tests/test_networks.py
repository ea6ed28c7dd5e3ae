"""Tests for the Merger-Reduction Network (MRN) micro-simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.mrn import (
    MergerReductionNetwork,
    NodeMode,
    merge_cycles,
    reduction_cycles,
)
from repro.sparse.fiber import Fiber


# ----------------------------------------------------------------------
# Merger-Reduction Network
# ----------------------------------------------------------------------
def sorted_fiber(pairs):
    return Fiber(sorted(pairs), sort=True)


class TestMrnStructure:
    def test_node_count(self):
        mrn = MergerReductionNetwork(16)
        assert mrn.num_nodes == 15
        assert mrn.levels == 4

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            MergerReductionNetwork(12)
        with pytest.raises(ValueError):
            MergerReductionNetwork(1)

    def test_configure_sets_all_nodes(self):
        mrn = MergerReductionNetwork(8)
        mrn.configure(NodeMode.ADDER)
        assert all(n.mode is NodeMode.ADDER for level in mrn.nodes for n in level)


class TestMrnReduce:
    def test_reduce_sums_values(self):
        mrn = MergerReductionNetwork(8)
        total, cycles = mrn.reduce([1.0, 2.0, 3.0, 4.0])
        assert total == pytest.approx(10.0)
        assert cycles == 2  # log2(4)

    def test_reduce_empty(self):
        mrn = MergerReductionNetwork(4)
        assert mrn.reduce([]) == (0.0, 0)

    def test_reduce_too_many_rejected(self):
        mrn = MergerReductionNetwork(4)
        with pytest.raises(ValueError):
            mrn.reduce([1.0] * 5)

    def test_reduce_clusters_parallel_cost(self):
        mrn = MergerReductionNetwork(8)
        sums, cycles = mrn.reduce_clusters([[1.0, 2.0], [3.0, 4.0, 5.0], [6.0]])
        assert sums == [pytest.approx(3.0), pytest.approx(12.0), pytest.approx(6.0)]
        assert cycles == 2  # depth of the largest cluster

    def test_reduce_clusters_capacity_check(self):
        mrn = MergerReductionNetwork(4)
        with pytest.raises(ValueError):
            mrn.reduce_clusters([[1.0, 1.0, 1.0], [1.0, 1.0]])

    def test_addition_count(self):
        mrn = MergerReductionNetwork(8)
        mrn.reduce([1.0] * 6)
        assert mrn.stats.additions == 5


class TestMrnMerge:
    def test_merge_two_sorted_fibers(self):
        mrn = MergerReductionNetwork(4)
        a = Fiber([(0, 1.0), (3, 2.0)])
        b = Fiber([(1, 5.0), (3, 1.0)])
        merged, cycles = mrn.merge([a, b])
        assert merged == a.merged(b)
        assert cycles >= len(merged)

    def test_merge_matches_reference_k_way(self):
        mrn = MergerReductionNetwork(8)
        fibers = [
            Fiber([(0, 1.0), (4, 2.0), (9, 1.0)]),
            Fiber([(1, 1.0), (4, -2.0)]),
            Fiber([(2, 3.0)]),
            Fiber([(0, 1.0), (9, 4.0)]),
            Fiber([(7, 2.0)]),
        ]
        merged, _ = mrn.merge(fibers)
        assert merged == Fiber.merge_many(fibers)

    def test_merge_empty_inputs(self):
        mrn = MergerReductionNetwork(4)
        merged, _ = mrn.merge([Fiber(), Fiber()])
        assert merged.is_empty()

    def test_merge_single_fiber_passthrough(self):
        mrn = MergerReductionNetwork(4)
        fiber = Fiber([(2, 1.0), (5, -1.0)])
        merged, _ = mrn.merge([fiber])
        assert merged == fiber

    def test_merge_capacity_check(self):
        mrn = MergerReductionNetwork(2)
        with pytest.raises(ValueError):
            mrn.merge([Fiber()] * 3)

    def test_merge_cycles_close_to_pipelined_estimate(self):
        mrn = MergerReductionNetwork(8)
        fibers = [sorted_fiber([(i * 3 + j, 1.0) for i in range(10)]) for j in range(3)]
        total_inputs = sum(f.nnz for f in fibers)
        _, cycles = mrn.merge(fibers)
        # Root emits at most one element per cycle; pipeline depth adds a few.
        assert total_inputs <= cycles <= 3 * total_inputs + 4 * mrn.levels + 8

    def test_stats_accumulate(self):
        mrn = MergerReductionNetwork(4)
        mrn.merge([Fiber([(0, 1.0)]), Fiber([(0, 2.0)])])
        assert mrn.stats.additions >= 1
        assert mrn.stats.elements_out == 1

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 30), st.floats(-5, 5, allow_nan=False)),
                max_size=12,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_reference_merge_property(self, raw_fibers):
        fibers = [sorted_fiber(pairs) for pairs in raw_fibers]
        mrn = MergerReductionNetwork(8)
        merged, _ = mrn.merge(fibers)
        expected = Fiber.merge_many(fibers)
        assert merged.coords == expected.coords
        for got, want in zip(merged.values, expected.values):
            assert got == pytest.approx(want)


class TestClosedFormEstimates:
    def test_reduction_cycles(self):
        assert reduction_cycles(0, 16, 6) == 0.0
        assert reduction_cycles(32, 16, 6) == pytest.approx(2 + 6)

    def test_merge_cycles(self):
        assert merge_cycles(0, 16, 6) == 0.0
        assert merge_cycles(160, 16, 6) == pytest.approx(10 + 6)

    def test_bandwidth_floor(self):
        assert reduction_cycles(10, 0, 2) == pytest.approx(10 + 2)
