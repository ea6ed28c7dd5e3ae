"""Tests for the accelerator configuration (Table 5)."""

import dataclasses

import pytest

from repro.arch.config import AcceleratorConfig, DramConfig, default_config


class TestDefaults:
    def test_table5_defaults(self):
        cfg = default_config()
        assert cfg.num_multipliers == 64
        assert cfg.num_adders == 63
        assert cfg.distribution_bandwidth == 16
        assert cfg.reduction_bandwidth == 16
        assert cfg.word_bits == 32
        assert cfg.l1_latency_cycles == 1
        assert cfg.sta_fifo_bytes == 256
        assert cfg.str_cache_bytes == 1 * 1024**2
        assert cfg.str_cache_line_bytes == 128
        assert cfg.str_cache_associativity == 16
        assert cfg.str_cache_banks == 16
        assert cfg.psram_bytes == 256 * 1024
        assert cfg.dram.size_bytes == 16 * 1024**3
        assert cfg.dram.access_time_ns == pytest.approx(100.0)
        assert cfg.dram.bandwidth_bytes_per_s == pytest.approx(256e9)

    def test_derived_quantities(self):
        cfg = default_config()
        assert cfg.element_bytes == 4
        assert cfg.str_cache_sets == (1024**2 // 128) // 16
        assert cfg.psram_blocks == 256 * 1024 // 128
        assert cfg.psram_elements_per_block == 32
        # 100 ns at 800 MHz is 80 cycles.
        assert cfg.dram_latency_cycles == 80
        assert cfg.dram_bytes_per_cycle == pytest.approx(256e9 / 800e6)

    def test_cycles_to_seconds(self):
        cfg = default_config()
        assert cfg.cycles_to_seconds(800e6) == pytest.approx(1.0)


class TestOverridesAndValidation:
    def test_default_config_overrides(self):
        cfg = default_config(num_multipliers=128)
        assert cfg.num_multipliers == 128
        assert cfg.num_adders == 127  # adjusted automatically

    def test_explicit_adder_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(num_multipliers=64, num_adders=10)

    def test_zero_multipliers_rejected(self):
        with pytest.raises(ValueError):
            default_config(num_multipliers=0)

    def test_cache_geometry_validation(self):
        with pytest.raises(ValueError):
            default_config(str_cache_bytes=1000)  # not a multiple of line size
        with pytest.raises(ValueError):
            default_config(str_cache_bytes=128 * 8, str_cache_associativity=16)

    def test_psram_geometry_validation(self):
        with pytest.raises(ValueError):
            default_config(psram_bytes=1000)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            default_config(distribution_bandwidth=0)

    def test_config_is_frozen(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_multipliers = 32


class TestScaling:
    def test_scaled_shrinks_srams(self):
        cfg = default_config()
        small = cfg.scaled(0.25)
        assert small.str_cache_bytes < cfg.str_cache_bytes
        assert small.psram_bytes < cfg.psram_bytes
        # Geometry invariants still hold (construction would raise otherwise).
        assert small.str_cache_bytes % small.str_cache_line_bytes == 0

    def test_scaled_keeps_minimum_geometry(self):
        cfg = default_config()
        tiny = cfg.scaled(1e-6)
        assert tiny.str_cache_bytes >= tiny.str_cache_line_bytes * tiny.str_cache_associativity
        assert tiny.psram_bytes >= tiny.psram_block_bytes * tiny.psram_banks

    def test_scaled_identity(self):
        cfg = default_config()
        assert cfg.scaled(1.0).str_cache_bytes in (cfg.str_cache_bytes, cfg.str_cache_bytes // 2 * 2)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_config().scaled(0.0)

    def test_dram_config_standalone(self):
        dram = DramConfig(access_time_ns=50.0, bandwidth_bytes_per_s=128e9)
        cfg = default_config(dram=dram)
        assert cfg.dram_latency_cycles == 40
        assert cfg.dram_bytes_per_cycle == pytest.approx(128e9 / 800e6)
