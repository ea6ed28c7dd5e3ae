"""Tests for the cycle-accounting SpMSpM engine."""

import pytest

from oracles.reference_engine import _pack_whole_fibers
from oracles.runner import run_dataflow
from repro.accelerators.engine import SpmspmEngine
from repro.arch.config import default_config
from repro.dataflows import Dataflow
from repro.sparse import Layout, random_sparse

ALL_DATAFLOWS = list(Dataflow)
M_DATAFLOWS = [Dataflow.IP_M, Dataflow.OP_M, Dataflow.GUST_M]


@pytest.fixture(scope="module")
def engine():
    return SpmspmEngine(default_config())


@pytest.fixture(scope="module")
def small_engine():
    return SpmspmEngine(default_config(num_multipliers=8))


def pair(m=50, k=60, n=45, da=0.3, db=0.25, seed=0):
    return (
        random_sparse(m, k, da, seed=seed),
        random_sparse(k, n, db, seed=seed + 777),
    )


class TestEngineBasics:
    def test_shape_mismatch_rejected(self, engine):
        a = random_sparse(4, 5, 0.5, seed=1)
        b = random_sparse(6, 4, 0.5, seed=2)
        with pytest.raises(ValueError):
            engine.run_layer(Dataflow.IP_M, a, b)

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    def test_result_record_fields(self, engine, dataflow):
        a, b = pair(seed=3)
        result = engine.run_layer(dataflow, a, b, layer_name="unit", accelerator_name="X")
        assert result.accelerator == "X"
        assert result.layer_name == "unit"
        assert result.dataflow is dataflow
        assert result.total_cycles > 0
        assert result.traffic.onchip_bytes > 0
        assert 0.0 <= result.str_cache_miss_rate <= 1.0

    def test_empty_a_operand(self, engine):
        a = random_sparse(10, 12, 0.0, seed=1)
        b = random_sparse(12, 9, 0.4, seed=2)
        for dataflow in ALL_DATAFLOWS:
            result = engine.run_layer(dataflow, a, b)
            assert result.stats.multiplications == 0
            assert result.stats.output_elements == 0


class TestCrossValidationWithFunctionalDataflows:
    """The engine's work counters must match the functional implementations."""

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    def test_multiplications_match(self, small_engine, dataflow):
        a, b = pair(m=30, k=40, n=25, seed=6)
        sim = small_engine.run_layer(dataflow, a, b)
        functional = run_dataflow(dataflow, a, b, num_multipliers=8)
        assert sim.stats.multiplications == functional.stats.multiplications

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    def test_output_elements_match(self, small_engine, dataflow):
        a, b = pair(m=30, k=40, n=25, seed=7)
        sim = small_engine.run_layer(dataflow, a, b)
        functional = run_dataflow(dataflow, a, b, num_multipliers=8)
        assert sim.stats.output_elements == functional.stats.output_elements

    @pytest.mark.parametrize("dataflow", M_DATAFLOWS, ids=lambda d: d.name)
    def test_stationary_and_streaming_reads_match(self, small_engine, dataflow):
        a, b = pair(m=30, k=40, n=25, seed=8)
        sim = small_engine.run_layer(dataflow, a, b)
        functional = run_dataflow(dataflow, a, b, num_multipliers=8)
        assert sim.stats.stationary_elements_read == functional.stats.stationary_elements_read
        assert sim.stats.streaming_elements_read == functional.stats.streaming_elements_read
        assert sim.stats.stationary_iterations == functional.stats.stationary_iterations

    def test_outer_product_psum_writes_match(self, small_engine):
        a, b = pair(m=30, k=40, n=25, seed=9)
        sim = small_engine.run_layer(Dataflow.OP_M, a, b)
        functional = run_dataflow(Dataflow.OP_M, a, b, num_multipliers=8)
        # First-pass partial sums (one per multiplication) are counted exactly;
        # the engine bounds the *respill* volume of multi-pass merges from
        # above instead of computing each intermediate union, so it may
        # slightly over-estimate (never under-estimate) the total.
        assert sim.stats.psum_writes >= functional.stats.psum_writes
        assert sim.stats.psum_writes <= functional.stats.psum_writes * 1.05
        assert sim.stats.psum_reads >= functional.stats.psum_reads
        assert sim.stats.psum_reads <= functional.stats.psum_reads * 1.05

    def test_gustavson_psum_behaviour_matches(self, small_engine):
        a, b = pair(m=20, k=60, n=30, da=0.5, seed=10)
        sim = small_engine.run_layer(Dataflow.GUST_M, a, b)
        functional = run_dataflow(Dataflow.GUST_M, a, b, num_multipliers=8)
        assert sim.stats.psum_writes == functional.stats.psum_writes
        assert sim.stats.psum_reads == functional.stats.psum_reads


class TestDataflowCharacteristics:
    """The engine must reproduce the qualitative behaviours the paper describes."""

    def test_inner_product_has_no_psum_traffic(self, engine):
        a, b = pair(seed=11)
        result = engine.run_layer(Dataflow.IP_M, a, b)
        assert result.traffic.psum_bytes == 0
        assert result.cycles.merging == 0.0

    def test_outer_product_psum_traffic_exceeds_output(self, engine):
        a, b = pair(seed=12)
        result = engine.run_layer(Dataflow.OP_M, a, b)
        output_bytes = result.stats.output_elements * 4
        assert result.traffic.psum_bytes > output_bytes

    def test_gustavson_merges_in_place_when_rows_fit(self, engine):
        a, b = pair(m=40, k=50, n=30, da=0.2, seed=13)
        max_row = max(a.fiber_nnz(i) for i in range(a.nrows))
        assert max_row <= engine.config.num_multipliers
        result = engine.run_layer(Dataflow.GUST_M, a, b)
        assert result.traffic.psum_bytes == 0
        assert result.cycles.merging == 0.0

    def test_gustavson_spills_when_row_exceeds_array(self, small_engine):
        a = random_sparse(5, 200, 0.5, seed=14)  # rows with ~100 nnz > 8 multipliers
        b = random_sparse(200, 40, 0.3, seed=15)
        result = small_engine.run_layer(Dataflow.GUST_M, a, b)
        assert result.traffic.psum_bytes > 0
        assert result.cycles.merging > 0.0

    def test_inner_product_restreams_when_a_is_large(self, engine):
        small_a, b = pair(m=10, k=60, n=45, da=0.1, seed=16)
        large_a = random_sparse(400, 60, 0.5, seed=17)
        small = engine.run_layer(Dataflow.IP_M, small_a, b)
        large = engine.run_layer(Dataflow.IP_M, large_a, b)
        assert large.stats.stationary_iterations > small.stats.stationary_iterations
        assert (
            large.stats.streaming_elements_read
            == large.stats.stationary_iterations * b.nnz
        )

    def test_streaming_matrix_bigger_than_cache_raises_ip_miss_rate(self):
        config = default_config(str_cache_bytes=8 * 1024)
        engine = SpmspmEngine(config)
        a = random_sparse(100, 64, 0.5, seed=18)
        big_b = random_sparse(64, 2000, 0.5, seed=19)   # ~256 KB compressed
        small_b = random_sparse(64, 200, 0.5, seed=20)  # fits in 8 KB? ~25 KB, still big
        tiny_b = random_sparse(64, 60, 0.3, seed=21)    # ~4.6 KB compressed
        big = engine.run_layer(Dataflow.IP_M, a, big_b)
        tiny = engine.run_layer(Dataflow.IP_M, a, tiny_b)
        del small_b
        assert big.str_cache_miss_rate > tiny.str_cache_miss_rate

    def test_offchip_traffic_includes_all_streams(self, engine):
        a, b = pair(seed=22)
        result = engine.run_layer(Dataflow.OP_M, a, b)
        assert result.traffic.offchip_bytes == result.dram.total_bytes
        assert result.dram.sta_read_bytes > 0
        assert result.dram.output_write_bytes > 0

    def test_mirrored_dataflows_are_symmetric(self, engine):
        """Running the N-variant equals running the M-variant on transposed operands."""
        a, b = pair(seed=23)
        n_variant = engine.run_layer(Dataflow.GUST_N, a, b)
        m_mirrored = engine.run_layer(Dataflow.GUST_M, b.transposed(), a.transposed())
        assert n_variant.total_cycles == pytest.approx(m_mirrored.total_cycles)
        assert n_variant.stats.multiplications == m_mirrored.stats.multiplications
        assert n_variant.dataflow is Dataflow.GUST_N


class TestPackWholeFibers:
    def test_covers_all_elements_once(self):
        a = random_sparse(20, 30, 0.4, seed=24)
        batches = _pack_whole_fibers(a, 16)
        covered = sum(end - start for batch in batches for _, start, end in batch)
        assert covered == a.nnz

    def test_batches_respect_capacity(self):
        a = random_sparse(20, 30, 0.4, seed=25)
        for batch in _pack_whole_fibers(a, 16):
            total = sum(end - start for _, start, end in batch)
            assert total <= 16 or len(batch) == 1

    def test_long_rows_split(self):
        a = random_sparse(3, 100, 0.9, seed=26)
        for batch in _pack_whole_fibers(a, 8):
            assert len(batch) == 1
            _, start, end = batch[0]
            assert end - start <= 8

    def test_empty_matrix(self):
        a = random_sparse(5, 5, 0.0, seed=1)
        assert _pack_whole_fibers(a, 8) == []


class TestLayoutInsensitivity:
    @pytest.mark.parametrize("dataflow", M_DATAFLOWS, ids=lambda d: d.name)
    def test_input_layout_does_not_change_results(self, small_engine, dataflow):
        a, b = pair(m=25, k=30, n=20, seed=27)
        base = small_engine.run_layer(dataflow, a, b)
        alt = small_engine.run_layer(
            dataflow, a.with_layout(Layout.CSC), b.with_layout(Layout.CSC)
        )
        assert base.stats.multiplications == alt.stats.multiplications
        assert base.total_cycles == pytest.approx(alt.total_cycles)
