"""Tests for the Merger-Reduction Network (MRN) micro-simulation.

Besides the unit checks, the micro-simulated merge is compared with the
closed form the engine charges for a merge pass, and the paper's
walk-through (Figs. 5-7) runs on the 4x4 operands of Fig. 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.fiber import Fiber, fiber_of, iter_nonempty_fibers
from oracles.mrn import (
    MergerReductionNetwork,
    NodeMode,
    merge_cycles,
    reduction_cycles,
)
from repro.accelerators.engine import SpmspmEngine
from repro.arch.config import default_config
from repro.dataflows import Dataflow
from repro.engine_vec import kernels
from repro.sparse import csc_from_dense, csr_from_dense, random_sparse


# ----------------------------------------------------------------------
# Merger-Reduction Network
# ----------------------------------------------------------------------
def sorted_fiber(pairs):
    return Fiber(sorted(pairs), sort=True)


class TestMrnStructure:
    def test_node_count(self):
        mrn = MergerReductionNetwork(16)
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


def engine_merge_cycles(total_inputs: int, leaves: int) -> float:
    """The cycles the engine charges for one merge pass of ``total_inputs``
    elements on a ``leaves``-leaf tree that takes one element per cycle:
    ``inputs / bandwidth + tree_depth``
    (:meth:`repro.engine_vec.kernels.OpMerge.price`), with nothing spilled
    or written off chip."""
    config = default_config(num_multipliers=leaves, reduction_bandwidth=1)
    operand = random_sparse(2, 2, 1.0, seed=0)
    ctx = SpmspmEngine(config)._build_context(Dataflow.OP_M, operand, operand)
    inputs = np.array([total_inputs])
    kernels.OpMerge(merged=0, inputs=inputs, blocks=0, output_bytes=0).price(ctx)
    return ctx.cycles.merging


class TestEngineClosedForm:
    """The micro-simulated merge against the closed form the engine charges."""

    @pytest.mark.parametrize(
        "leaves,ncols,density", [(8, 64, 0.4), (16, 128, 0.3), (16, 256, 0.15)]
    )
    def test_micro_simulation_stays_near_the_closed_form(self, leaves, ncols, density):
        matrix = random_sparse(leaves, ncols, density, seed=leaves * ncols)
        fibers = [fiber_of(matrix, i) for i in range(leaves)]
        mrn = MergerReductionNetwork(leaves)
        merged, measured = mrn.merge(fibers)
        total_inputs = sum(f.nnz for f in fibers)
        # The micro-simulated tree emits one element per cycle at the root.
        predicted = engine_merge_cycles(total_inputs, leaves)
        assert predicted == merge_cycles(total_inputs, 1, tree_depth=mrn.levels)
        # The closed form is a throughput bound on the inputs: queueing can
        # add a bounded factor above it, while equal coordinates combining
        # inside the tree retire more than one input per root emission.
        assert 0.2 <= measured / predicted <= 4.0
        # Equal coordinates combine, so the output never outgrows the inputs.
        assert merged.nnz <= total_inputs


# ----------------------------------------------------------------------
# The paper's walk-through (Figs. 5-7) on a 4-multiplier Flexagon
# ----------------------------------------------------------------------
#: The 4x4 example operands used throughout Section 3.2 (Fig. 2), dense.
PAPER_A = np.array([
    [0.0, 2.0, 0.0, 0.0],
    [1.0, 0.0, 3.0, 4.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])
PAPER_B = np.array([
    [0.0, 5.0, 0.0, 0.0],
    [6.0, 0.0, 7.0, 0.0],
    [8.0, 0.0, 9.0, 0.0],
    [1.0, 0.0, 0.0, 2.0],
])


def inner_product_on_the_mrn(a_dense, b_dense):
    """Rows of A stationary, columns of B streamed; each effectual
    intersection's products are reduced by the MRN in adder mode."""
    a, b = csr_from_dense(a_dense), csc_from_dense(b_dense)
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for m, a_fiber in iter_nonempty_fibers(a):
        for n in range(b.major_dim):
            b_fiber = fiber_of(b, n)
            products = [
                a_fiber.value_at(coord) * b_fiber.value_at(coord)
                for coord in a_fiber.intersect_coords(b_fiber)
            ]
            if products:
                c[m, n], _cycles = mrn.reduce(products)
    return c


def outer_product_on_the_mrn(a_dense, b_dense):
    """Every stationary A[m, k] scales the fiber B[k, :] into a partial-sum
    fiber of row m (the PSRAM's role); the MRN in comparator mode then
    merges each row's partial sums."""
    a, b = csc_from_dense(a_dense), csr_from_dense(b_dense)
    psums: dict[int, list[Fiber]] = {}
    for k, a_fiber in iter_nonempty_fibers(a):
        for m, a_value in a_fiber:
            psums.setdefault(m, []).append(fiber_of(b, k).scaled(a_value))
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for m, fibers in psums.items():
        merged, _cycles = mrn.merge(fibers)
        for n, value in merged:
            c[m, n] = value
    return c


def gustavson_on_the_mrn(a_dense, b_dense):
    """The rows of B a row of A selects, scaled and merged on the fly by the
    MRN in comparator mode, row by row."""
    a, b = csr_from_dense(a_dense), csr_from_dense(b_dense)
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for m, a_fiber in iter_nonempty_fibers(a):
        merged, _cycles = mrn.merge([fiber_of(b, k).scaled(v) for k, v in a_fiber])
        for n, value in merged:
            c[m, n] = value
    return c


@pytest.mark.parametrize(
    "walkthrough",
    [inner_product_on_the_mrn, outer_product_on_the_mrn, gustavson_on_the_mrn],
    ids=["IP-adder", "OP-comparator", "Gust-comparator"],
)
def test_paper_walkthrough_computes_c(walkthrough):
    assert np.allclose(walkthrough(PAPER_A, PAPER_B), PAPER_A @ PAPER_B)
