"""Dispatch helper that runs any of the six functional dataflows."""

from __future__ import annotations

from oracles.gustavson import run_gustavson
from oracles.inner_product import run_inner_product
from oracles.outer_product import run_outer_product
from oracles.result import DataflowResult
from repro.dataflows.base import Dataflow, DataflowClass
from repro.sparse.formats import CompressedMatrix


def run_dataflow(
    dataflow: Dataflow,
    a: CompressedMatrix,
    b: CompressedMatrix,
    *,
    num_multipliers: int = 64,
) -> DataflowResult:
    """Execute ``C = A x B`` using the requested dataflow variant."""
    n_stationary = dataflow.is_n_stationary
    runners = {
        DataflowClass.INNER_PRODUCT: run_inner_product,
        DataflowClass.OUTER_PRODUCT: run_outer_product,
        DataflowClass.GUSTAVSON: run_gustavson,
    }
    runner = runners[dataflow.dataflow_class]
    return runner(a, b, num_multipliers=num_multipliers, n_stationary=n_stationary)
