"""Tests for the workload package: layer specs, DNN models and Table 6 layers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import Layout
from repro.workloads import (
    MODEL_REGISTRY,
    LayerSpec,
    get_model,
    get_representative_layer,
    materialize_layer,
)
from repro.workloads.layers import layer_summary, scale_for_budget
from repro.workloads.representative import (
    FAVOURED_DATAFLOW_CLASS,
    REPRESENTATIVE_LAYERS,
    representative_layer_names,
)


class TestLayerSpec:
    def test_basic_properties(self):
        spec = LayerSpec("t", m=10, k=20, n=30, sparsity_a=0.7, sparsity_b=0.4)
        assert spec.density_a == pytest.approx(0.3)
        assert spec.density_b == pytest.approx(0.6)
        assert spec.dense_macs == 6000
        assert spec.expected_nnz_a() == pytest.approx(60)
        assert spec.expected_nnz_b() == pytest.approx(360)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec("bad", m=0, k=1, n=1, sparsity_a=0.5, sparsity_b=0.5)

    def test_invalid_sparsity_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec("bad", m=1, k=1, n=1, sparsity_a=1.5, sparsity_b=0.5)

    def test_scaled_shrinks_dimensions(self):
        spec = LayerSpec("t", m=100, k=200, n=300, sparsity_a=0.5, sparsity_b=0.5)
        small = spec.scaled(0.1)
        assert (small.m, small.k, small.n) == (10, 20, 30)
        assert small.sparsity_a == spec.sparsity_a

    def test_scaled_never_reaches_zero(self):
        spec = LayerSpec("t", m=3, k=3, n=3, sparsity_a=0.5, sparsity_b=0.5)
        tiny = spec.scaled(0.01)
        assert min(tiny.m, tiny.k, tiny.n) >= 1

    def test_scaled_identity(self):
        spec = LayerSpec("t", m=3, k=4, n=5, sparsity_a=0.5, sparsity_b=0.5)
        assert spec.scaled(1.0) is spec

    def test_deterministic_seed_stable(self):
        spec = LayerSpec("t", m=3, k=4, n=5, sparsity_a=0.5, sparsity_b=0.5)
        assert spec.deterministic_seed() == spec.deterministic_seed()
        assert spec.deterministic_seed(1) != spec.deterministic_seed(2)

    def test_layer_summary_rows(self):
        row = layer_summary(REPRESENTATIVE_LAYERS[0])
        assert row["layer"] == "SQ5"
        assert row["M"] == 64

    @given(st.floats(0.01, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_for_budget_respects_budget(self, fraction):
        spec = LayerSpec("t", m=200, k=300, n=400, sparsity_a=0.5, sparsity_b=0.5)
        budget = spec.dense_macs * fraction
        scale = scale_for_budget(spec, budget)
        assert 0 < scale <= 1.0
        assert spec.scaled(scale).dense_macs <= budget * 1.2  # rounding slack


class TestMaterialization:
    def test_materialize_shapes_and_layouts(self):
        spec = LayerSpec("t", m=40, k=50, n=60, sparsity_a=0.6, sparsity_b=0.3)
        a, b = materialize_layer(spec, layout_a=Layout.CSR, layout_b=Layout.CSC)
        assert a.shape == (40, 50)
        assert b.shape == (50, 60)
        assert a.layout is Layout.CSR
        assert b.layout is Layout.CSC

    def test_materialize_density_close_to_spec(self):
        spec = LayerSpec("t", m=80, k=80, n=80, sparsity_a=0.7, sparsity_b=0.4)
        a, b = materialize_layer(spec)
        assert a.density == pytest.approx(spec.density_a, abs=0.05)
        assert b.density == pytest.approx(spec.density_b, abs=0.05)

    def test_materialize_is_deterministic(self):
        spec = REPRESENTATIVE_LAYERS[1]
        a1, b1 = materialize_layer(spec, scale=0.3)
        a2, b2 = materialize_layer(spec, scale=0.3)
        assert a1 == a2
        assert b1 == b2

    def test_scale_shrinks_matrices(self):
        spec = REPRESENTATIVE_LAYERS[2]
        full_a, _ = materialize_layer(spec, scale=0.3)
        small_a, _ = materialize_layer(spec, scale=0.15)
        assert small_a.nrows < full_a.nrows


class TestModels:
    def test_registry_has_eight_models(self):
        assert len(MODEL_REGISTRY) == 8
        assert list(MODEL_REGISTRY) == ["A", "SQ", "V", "R", "S-R", "S-M", "DB", "MB"]

    def test_layer_counts_match_table2(self):
        expected = {"A": 7, "SQ": 26, "V": 8, "R": 54, "S-R": 37, "S-M": 29,
                    "DB": 36, "MB": 316}
        for short, count in expected.items():
            assert get_model(short).num_layers == count, short

    def test_lookup_by_full_name(self):
        assert get_model("AlexNet").short_name == "A"
        assert get_model("mobilebert").short_name == "MB"

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_model("GPT-4")

    def test_average_sparsities_close_to_table2(self):
        """Per-layer jitter must preserve the model-level averages of Table 2.

        The models use the paper's operand convention: A is the weight matrix
        (AvSpA) and B the activation matrix (AvSpB).
        """
        for model in MODEL_REGISTRY.values():
            avg_wgt = sum(l.sparsity_a for l in model.layers) / model.num_layers
            avg_act = sum(l.sparsity_b for l in model.layers) / model.num_layers
            assert avg_wgt == pytest.approx(model.table2_weight_sparsity, abs=0.06)
            assert avg_act == pytest.approx(model.table2_activation_sparsity, abs=0.06)

    def test_layer_names_are_unique(self):
        for model in MODEL_REGISTRY.values():
            names = [layer.name for layer in model.layers]
            assert len(names) == len(set(names)), model.name

    def test_nlp_models_have_gemm_shapes(self):
        db = get_model("DB")
        assert all(layer.k >= 512 for layer in db.layers)
        mb = get_model("MB")
        # MobileBERT runs at sequence length 8 (the N / token dimension).
        assert all(layer.n == 8 for layer in mb.layers)

    def test_cpu_reference_cycles_present(self):
        for model in MODEL_REGISTRY.values():
            assert model.table2_cpu_megacycles > 0


class TestRepresentativeLayers:
    def test_nine_layers_in_table_order(self):
        assert representative_layer_names() == [
            "SQ5", "SQ11", "R4", "R6", "S-R3", "V0", "MB215", "V7", "A2",
        ]
        assert len(REPRESENTATIVE_LAYERS) == 9

    def test_table6_dimensions_verbatim(self):
        v0 = get_representative_layer("V0")
        assert (v0.m, v0.n, v0.k) == (128, 12100, 576)
        assert v0.sparsity_a == pytest.approx(0.90)
        assert v0.sparsity_b == pytest.approx(0.61)
        mb = get_representative_layer("MB215")
        assert (mb.m, mb.n, mb.k) == (128, 8, 512)

    def test_unknown_layer_rejected(self):
        with pytest.raises(KeyError):
            get_representative_layer("Z9")

    def test_each_group_of_three_favours_one_family(self):
        from repro.dataflows import DataflowClass

        assert FAVOURED_DATAFLOW_CLASS["SQ5"] is DataflowClass.INNER_PRODUCT
        assert FAVOURED_DATAFLOW_CLASS["V0"] is DataflowClass.OUTER_PRODUCT
        assert FAVOURED_DATAFLOW_CLASS["A2"] is DataflowClass.GUSTAVSON
