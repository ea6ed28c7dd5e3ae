"""Tests for the six functional SpMSpM dataflow implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.gustavson import run_gustavson
from oracles.inner_product import run_inner_product
from oracles.outer_product import run_outer_product
from oracles.runner import run_dataflow
from oracles.spgemm import matrices_allclose, spgemm_reference
from repro.dataflows import (
    DATAFLOW_PROPERTIES,
    Dataflow,
    DataflowClass,
    taxonomy_table,
)
from repro.sparse import Layout, csr_from_dense, random_sparse

ALL_DATAFLOWS = list(Dataflow)


def random_pair(m=18, k=24, n=15, da=0.3, db=0.25, seed=0):
    a = random_sparse(m, k, da, seed=seed)
    b = random_sparse(k, n, db, seed=seed + 1000)
    return a, b


class TestCorrectness:
    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    def test_matches_reference(self, dataflow):
        a, b = random_pair(seed=7)
        reference = spgemm_reference(a, b)
        result = run_dataflow(dataflow, a, b, num_multipliers=8)
        assert matrices_allclose(result.output, reference)

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    def test_output_layout_matches_table3(self, dataflow):
        a, b = random_pair(seed=3)
        result = run_dataflow(dataflow, a, b, num_multipliers=16)
        assert result.output.layout is DATAFLOW_PROPERTIES[dataflow].c_format

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    @pytest.mark.parametrize("num_multipliers", [1, 3, 64, 1000])
    def test_correct_for_any_array_size(self, dataflow, num_multipliers):
        a, b = random_pair(m=10, k=12, n=9, seed=11)
        reference = spgemm_reference(a, b)
        result = run_dataflow(dataflow, a, b, num_multipliers=num_multipliers)
        assert matrices_allclose(result.output, reference)

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    def test_empty_operands(self, dataflow):
        a = random_sparse(6, 8, 0.0, seed=1)
        b = random_sparse(8, 5, 0.4, seed=2)
        result = run_dataflow(dataflow, a, b, num_multipliers=4)
        assert result.output.nnz == 0
        assert result.stats.multiplications == 0

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS, ids=lambda d: d.name)
    def test_dense_operands(self, dataflow):
        rng = np.random.default_rng(5)
        a = csr_from_dense(rng.normal(size=(6, 7)))
        b = csr_from_dense(rng.normal(size=(7, 5)))
        result = run_dataflow(dataflow, a, b, num_multipliers=8)
        assert matrices_allclose(result.output, a.to_dense() @ b.to_dense())

    def test_shape_mismatch_rejected(self):
        a = random_sparse(4, 5, 0.5, seed=1)
        b = random_sparse(6, 4, 0.5, seed=2)
        for runner in (run_inner_product, run_outer_product, run_gustavson):
            with pytest.raises(ValueError):
                runner(a, b)

    def test_invalid_multiplier_count_rejected(self):
        a, b = random_pair(seed=1)
        for runner in (run_inner_product, run_outer_product, run_gustavson):
            with pytest.raises(ValueError):
                runner(a, b, num_multipliers=0)

    @given(
        st.integers(2, 10), st.integers(2, 10), st.integers(2, 10),
        st.floats(0.05, 0.8), st.floats(0.05, 0.8), st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_dataflows_agree_property(self, m, k, n, da, db, seed):
        a = random_sparse(m, k, da, seed=seed)
        b = random_sparse(k, n, db, seed=seed + 1)
        outputs = [
            run_dataflow(df, a, b, num_multipliers=4).output for df in ALL_DATAFLOWS
        ]
        reference = spgemm_reference(a, b)
        for output in outputs:
            assert matrices_allclose(output, reference)


class TestStatistics:
    def test_effectual_multiplications_identical_across_dataflows(self):
        """All dataflows perform the same effectual multiplies on the same input."""
        a, b = random_pair(seed=21)
        counts = {
            df: run_dataflow(df, a, b, num_multipliers=8).stats.multiplications
            for df in ALL_DATAFLOWS
        }
        assert len(set(counts.values())) == 1

    def test_inner_product_produces_no_psums(self):
        a, b = random_pair(seed=22)
        stats = run_inner_product(a, b, num_multipliers=8).stats
        assert stats.psum_writes == 0
        assert stats.psum_reads == 0
        assert stats.merge_comparisons == 0

    def test_outer_product_psum_writes_equal_multiplications(self):
        """In OP every product becomes a partial sum that is written out."""
        a, b = random_pair(seed=23)
        stats = run_outer_product(a, b, num_multipliers=8).stats
        assert stats.psum_writes >= stats.multiplications
        assert stats.psum_reads >= stats.multiplications

    def test_gustavson_spills_less_than_outer_product(self):
        a, b = random_pair(m=30, k=30, n=30, da=0.3, db=0.3, seed=24)
        op = run_outer_product(a, b, num_multipliers=8).stats
        gust = run_gustavson(a, b, num_multipliers=8).stats
        assert gust.psum_writes <= op.psum_writes

    def test_gustavson_no_spill_when_rows_fit(self):
        """Rows whose nnz fits in the multiplier array never touch the PSRAM."""
        a, b = random_pair(m=10, k=12, n=9, da=0.2, db=0.3, seed=25)
        max_row_nnz = max(a.fiber_nnz(i) for i in range(a.nrows))
        stats = run_gustavson(a, b, num_multipliers=max(8, max_row_nnz)).stats
        assert stats.psum_writes == 0
        assert stats.psum_reads == 0

    def test_inner_product_restreams_b_per_iteration(self):
        a, b = random_pair(seed=26)
        small = run_inner_product(a, b, num_multipliers=2).stats
        large = run_inner_product(a, b, num_multipliers=10_000).stats
        assert large.stationary_iterations == 1
        assert small.stationary_iterations > large.stationary_iterations
        assert small.streaming_elements_read == small.stationary_iterations * b.nnz
        assert large.streaming_elements_read == b.nnz

    def test_outer_product_reads_streaming_once_with_large_array(self):
        """With a big enough array, OP touches each B fiber exactly once."""
        a, b = random_pair(seed=27)
        stats = run_outer_product(a, b, num_multipliers=100_000).stats
        touched_ks = sorted({k for _, k, _ in a.iter_elements()})
        expected = sum(b.fiber_nnz(k) for k in touched_ks)
        assert stats.streaming_elements_read == expected

    def test_output_elements_counts_nnz_of_c(self):
        a, b = random_pair(seed=28)
        for df in ALL_DATAFLOWS:
            result = run_dataflow(df, a, b, num_multipliers=8)
            assert result.stats.output_elements == result.output.nnz

    def test_stats_merge(self):
        a, b = random_pair(seed=29)
        s1 = run_gustavson(a, b, num_multipliers=4).stats
        s2 = run_gustavson(a, b, num_multipliers=4).stats
        merged = s1.merged_with(s2)
        assert merged.multiplications == 2 * s1.multiplications


class TestTaxonomy:
    def test_six_dataflows(self):
        assert len(ALL_DATAFLOWS) == 6
        assert len({df.loop_order for df in ALL_DATAFLOWS}) == 6

    def test_classes(self):
        assert Dataflow.IP_M.dataflow_class is DataflowClass.INNER_PRODUCT
        assert Dataflow.OP_N.dataflow_class is DataflowClass.OUTER_PRODUCT
        assert Dataflow.GUST_M.dataflow_class is DataflowClass.GUSTAVSON

    def test_stationarity_flags(self):
        assert Dataflow.IP_M.is_m_stationary
        assert not Dataflow.IP_M.is_n_stationary
        assert Dataflow.GUST_N.is_n_stationary

    def test_m_stationary_emits_csr_n_stationary_emits_csc(self):
        for df in ALL_DATAFLOWS:
            expected = Layout.CSR if df.is_m_stationary else Layout.CSC
            assert DATAFLOW_PROPERTIES[df].c_format is expected

    def test_mirrored(self):
        assert Dataflow.IP_M.mirrored() is Dataflow.IP_N
        assert Dataflow.GUST_N.mirrored() is Dataflow.GUST_M
        for df in ALL_DATAFLOWS:
            assert df.mirrored().mirrored() is df

    def test_taxonomy_table_rows(self):
        rows = taxonomy_table()
        assert len(rows) == 6
        by_order = {row["loop_order"]: row for row in rows}
        assert by_order["MNK"]["merging"] == "N/A"
        assert by_order["KMN"]["intersection"] == "N/A"
        assert by_order["MKN"]["a_format"] == "CSR"
        assert by_order["NKM"]["c_format"] == "CSC"

    def test_run_dataflow_accepts_string_names(self):
        a, b = random_pair(seed=31)
        ref = spgemm_reference(a, b)
        assert matrices_allclose(run_dataflow(Dataflow.GUST_M, a, b).output, ref)
