"""Tests for the core package: the heuristic and oracle mappers."""

import pytest

from repro.arch.config import default_config
from repro.core import HeuristicMapper, OracleMapper
from repro.dataflows import Dataflow, DataflowClass
from repro.runtime import BatchRunner
from repro.sparse import random_sparse
from repro.workloads import get_representative_layer, materialize_layer

CONFIG = default_config()


def pair(seed=0, m=40, k=60, n=40, da=0.3, db=0.3):
    return (
        random_sparse(m, k, da, seed=seed),
        random_sparse(k, n, db, seed=seed + 55),
    )


class TestHeuristicMapper:
    def test_estimates_cover_three_families(self):
        mapper = HeuristicMapper(CONFIG)
        a, b = pair(seed=1)
        estimates = mapper.estimate_costs(a, b)
        assert set(estimates) == set(DataflowClass)
        assert all(est.cost > 0 for est in estimates.values())

    def test_selection_returns_a_dataflow(self):
        mapper = HeuristicMapper(CONFIG)
        a, b = pair(seed=2)
        assert isinstance(mapper.select(a, b), Dataflow)

    def test_ip_friendly_layer_prefers_inner_product(self):
        """Small stationary operand + small streaming matrix => IP (SQ5-like)."""
        mapper = HeuristicMapper(CONFIG)
        spec = get_representative_layer("SQ5")
        a, b = materialize_layer(spec, scale=0.5)
        chosen = mapper.select(a, b)
        assert chosen.dataflow_class in (
            DataflowClass.INNER_PRODUCT,
            DataflowClass.GUSTAVSON,
        )

    def test_large_streaming_matrix_avoids_inner_product(self):
        """A huge B that does not fit the cache makes IP re-stream it => avoid."""
        config = default_config(str_cache_bytes=16 * 1024)
        mapper = HeuristicMapper(config)
        a = random_sparse(300, 200, 0.6, seed=5)
        b = random_sparse(200, 2000, 0.5, seed=6)
        chosen = mapper.select(a, b)
        assert chosen.dataflow_class is not DataflowClass.INNER_PRODUCT


class TestOracleMapper:
    def test_oracle_matches_best_engine_run(self):
        from repro.accelerators.engine import SpmspmEngine

        a, b = pair(seed=7, m=30, k=40, n=30)
        oracle = OracleMapper(CONFIG, BatchRunner(parallel=False, cache=None))
        chosen = oracle.select(a, b)
        engine = SpmspmEngine(CONFIG)
        cycles = {d: engine.run_layer(d, a, b).total_cycles for d in Dataflow}
        assert cycles[chosen] == pytest.approx(min(cycles.values()))

    def test_oracle_is_never_worse_than_heuristic(self):
        from repro.accelerators.engine import SpmspmEngine

        a, b = pair(seed=8, m=30, k=40, n=30)
        engine = SpmspmEngine(CONFIG)
        oracle = OracleMapper(CONFIG, BatchRunner(parallel=False, cache=None))
        oracle_cycles = engine.run_layer(oracle.select(a, b), a, b).total_cycles
        heuristic_cycles = engine.run_layer(
            HeuristicMapper(CONFIG).select(a, b), a, b
        ).total_cycles
        assert oracle_cycles <= heuristic_cycles + 1e-9
