"""Property-style equivalence tests: every dataflow vs the dense reference.

The three dataflow families (six variants) in :mod:`oracles.runner` are the
algorithmic ground truth the hardware models consume; this suite pins them to
the dense-numpy reference in :mod:`oracles.spgemm` across a grid of
random sparsities, seeds, shapes and non-zero patterns, so a runtime or
engine refactor can never silently change *what* is being computed.
"""

from __future__ import annotations

import pytest

from oracles.runner import run_dataflow
from oracles.spgemm import dense_matmul, matrices_allclose, spgemm_reference
from repro.dataflows import Dataflow
from repro.sparse import random_sparse
from repro.sparse.generate import SparsityPattern

#: (m, k, n) shapes: square, wide, tall and degenerate inner dimension.
SHAPES = ((24, 24, 24), (17, 31, 9), (40, 6, 33))
DENSITIES = (0.05, 0.25, 0.6)
SEEDS = (0, 1, 2)


def _operands(shape, density_a, density_b, seed, pattern=SparsityPattern.UNIFORM):
    m, k, n = shape
    a = random_sparse(m, k, density=density_a, pattern=pattern, seed=seed)
    b = random_sparse(k, n, density=density_b, pattern=pattern, seed=seed + 1000)
    return a, b


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("dataflow", list(Dataflow), ids=lambda d: d.name)
def test_every_dataflow_matches_dense_reference(dataflow, density, seed):
    a, b = _operands(SHAPES[seed % len(SHAPES)], density, density, seed)
    result = run_dataflow(dataflow, a, b, num_multipliers=16)
    assert matrices_allclose(result.output, dense_matmul(a, b)), (
        dataflow,
        density,
        seed,
    )


@pytest.mark.parametrize("dataflow", list(Dataflow), ids=lambda d: d.name)
@pytest.mark.parametrize(
    "pattern",
    (SparsityPattern.ROW_SKEWED, SparsityPattern.BANDED, SparsityPattern.BLOCK),
    ids=lambda p: p.value,
)
def test_dataflows_match_reference_on_structured_patterns(dataflow, pattern):
    a, b = _operands((20, 28, 22), 0.3, 0.2, seed=7, pattern=pattern)
    result = run_dataflow(dataflow, a, b, num_multipliers=8)
    assert matrices_allclose(result.output, dense_matmul(a, b)), (dataflow, pattern)


@pytest.mark.parametrize("dataflow", list(Dataflow), ids=lambda d: d.name)
def test_dataflows_match_reference_on_asymmetric_sparsity(dataflow):
    """Very sparse activations against near-dense weights and vice versa."""
    for density_a, density_b in ((0.02, 0.9), (0.9, 0.02)):
        a, b = _operands((26, 18, 30), density_a, density_b, seed=11)
        result = run_dataflow(dataflow, a, b, num_multipliers=16)
        assert matrices_allclose(result.output, dense_matmul(a, b)), (
            dataflow,
            density_a,
            density_b,
        )


@pytest.mark.parametrize("dataflow", list(Dataflow), ids=lambda d: d.name)
def test_dataflows_handle_an_empty_operand(dataflow):
    a, b = _operands((12, 10, 14), 0.0, 0.4, seed=3)
    result = run_dataflow(dataflow, a, b, num_multipliers=4)
    assert matrices_allclose(result.output, dense_matmul(a, b))
    assert result.stats.multiplications == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_reference_agrees_with_dense_reference(seed):
    """The two ground truths must agree with each other, too."""
    a, b = _operands((21, 19, 23), 0.3, 0.35, seed=seed)
    assert matrices_allclose(spgemm_reference(a, b), dense_matmul(a, b))
