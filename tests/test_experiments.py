"""Integration tests for the experiment harness (small budgets, full code paths)."""

import pytest

from repro.experiments import (
    area_power_rows,
    best_dataflow_per_layer_rows,
    default_settings,
    end_to_end_speedup_rows,
    layerwise_speedup_rows,
    miss_rate_rows,
    model_statistics_rows,
    naive_comparison_rows,
    offchip_traffic_rows,
    onchip_traffic_rows,
    performance_per_area_rows,
)
from repro.experiments.layerwise import DESIGN_ORDER
from repro.metrics import format_table
from repro.workloads.representative import representative_layer_names


@pytest.fixture(scope="module")
def layerwise(tiny_session):
    return tiny_session.layerwise()


@pytest.fixture(scope="module")
def end_to_end(tiny_session):
    return tiny_session.end_to_end()


class TestSettings:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_DENSE_MACS", "123456")
        monkeypatch.setenv("REPRO_MAX_LAYERS", "5")
        settings = default_settings()
        assert settings.max_dense_macs == 123456
        assert settings.max_layers_per_model == 5

    def test_full_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert default_settings().max_dense_macs is None

    def test_scaled_config_preserves_ratios(self):
        settings = default_settings(max_dense_macs=1e6)
        config = settings.scaled_config(0.1)
        full = settings.config
        assert config.num_multipliers < full.num_multipliers
        # The multiplier-to-bandwidth ratio of the full design is preserved.
        assert config.num_multipliers / config.distribution_bandwidth == pytest.approx(
            full.num_multipliers / full.distribution_bandwidth, rel=0.5
        )
        assert config.str_cache_bytes < full.str_cache_bytes

    def test_scale_one_returns_reference_config(self):
        settings = default_settings()
        assert settings.scaled_config(1.0) is settings.config


class TestLayerwiseHarness:
    def test_covers_all_layers_and_designs(self, layerwise):
        assert layerwise.layer_names() == representative_layer_names()
        for layer in layerwise.layer_names():
            assert set(layerwise.results[layer]) == set(DESIGN_ORDER)

    def test_caching_returns_same_object(self, tiny_session, layerwise):
        assert tiny_session.layerwise() is layerwise

    def test_speedup_rows_shape(self, layerwise):
        rows = layerwise_speedup_rows(layerwise)
        assert len(rows) == 9 * 4
        sigma_rows = [r for r in rows if r["design"] == "SIGMA-like"]
        assert all(r["speedup_vs_sigma"] == pytest.approx(1.0) for r in sigma_rows)

    def test_traffic_and_missrate_rows(self, layerwise):
        for maker in (onchip_traffic_rows, miss_rate_rows, offchip_traffic_rows):
            rows = maker(layerwise)
            assert len(rows) == 9 * 4
            assert format_table(rows)  # renders without error

    def test_flexagon_matches_best_design(self, layerwise):
        rows = layerwise_speedup_rows(layerwise)
        by_layer = {}
        for row in rows:
            by_layer.setdefault(row["layer"], {})[row["design"]] = row["speedup_vs_sigma"]
        for layer, cells in by_layer.items():
            best_fixed = max(cells[d] for d in DESIGN_ORDER if d != "Flexagon")
            assert cells["Flexagon"] >= 0.9 * best_fixed, layer


class TestEndToEndHarness:
    def test_covers_all_models(self, end_to_end):
        assert end_to_end.model_names() == ["A", "SQ", "V", "R", "S-R", "S-M", "DB", "MB"]
        for model in end_to_end.model_names():
            assert end_to_end.sampled_layers[model] <= 3
            assert end_to_end.extrapolation[model] >= 1.0

    def test_speedup_rows_have_geomean(self, end_to_end):
        rows = end_to_end_speedup_rows(end_to_end)
        assert rows[-1]["model"] == "GEOMEAN"
        assert len(rows) == 9

    def test_accelerators_beat_cpu_on_average(self, end_to_end):
        geomean = end_to_end_speedup_rows(end_to_end)[-1]
        assert geomean["Flexagon"] > 1.0

    def test_flexagon_at_least_matches_best_fixed(self, end_to_end):
        for row in end_to_end_speedup_rows(end_to_end)[:-1]:
            best_fixed = max(row[d] for d in ("SIGMA-like", "SpArch-like", "GAMMA-like"))
            assert row["Flexagon"] >= 0.95 * best_fixed, row["model"]

    def test_performance_per_area_rows(self, end_to_end):
        rows = performance_per_area_rows(end_to_end)
        assert rows[-1]["model"] == "GEOMEAN"
        assert all(value > 0 for row in rows for key, value in row.items() if key != "model")

    def test_best_dataflow_rows(self, end_to_end):
        rows = best_dataflow_per_layer_rows(end_to_end)
        assert len(rows) == sum(end_to_end.sampled_layers.values())
        assert all(row["best"] in ("IP", "OP", "Gust") for row in rows)

    def test_model_statistics_rows(self, end_to_end):
        rows = model_statistics_rows(end_to_end)
        assert len(rows) == 8
        assert all(row["layers"] > 0 for row in rows)


class TestAreaHarness:
    def test_area_rows(self):
        rows = area_power_rows()
        assert [row["design"] for row in rows] == [
            "SIGMA-like", "SpArch-like", "GAMMA-like", "Flexagon",
        ]
        assert rows[-1]["Total (mm2)"] > rows[0]["Total (mm2)"]

    def test_naive_rows(self):
        rows = naive_comparison_rows()
        designs = {row["design"]: row for row in rows}
        assert designs["Naive"]["total_mm2"] > designs["Flexagon"]["total_mm2"]
