"""Tests for the four hardware designs, the CPU baseline and the area model."""

import pytest

from repro.accelerators import (
    CpuMklLikeBaseline,
    accelerator_area_power,
    naive_triple_network_area,
)
from repro.accelerators.area_power import performance_per_area
from repro.accelerators.cpu import CpuConfig
from repro.arch.config import default_config
from repro.dataflows import Dataflow, DataflowClass
from repro.runtime import DESIGN_DATAFLOWS, DESIGN_ORDER, BatchRunner, run_design
from repro.sparse import random_sparse
from repro.workloads import get_representative_layer, materialize_layer

CONFIG = default_config()
BASELINES = ("SIGMA-like", "SpArch-like", "GAMMA-like")
# Test ids keep the names these baselines had as accelerator classes.
BASELINE_IDS = ("SigmaLikeAccelerator", "SparchLikeAccelerator", "GammaLikeAccelerator")


def pair(seed=0, m=60, k=80, n=50, da=0.3, db=0.25):
    return (
        random_sparse(m, k, da, seed=seed),
        random_sparse(k, n, db, seed=seed + 99),
    )


def run(design, a, b, **kwargs):
    """One layer on ``design``, as the product runs it, without a cache."""
    runner = BatchRunner(parallel=False, cache=None)
    return run_design(design, CONFIG, a, b, runner=runner, **kwargs)


def test_design_order_is_the_table():
    assert DESIGN_ORDER == tuple(DESIGN_DATAFLOWS)


@pytest.mark.parametrize("design", DESIGN_ORDER)
def test_a_forced_dataflow_in_the_row_is_configured(design):
    a, b = pair(seed=5)
    forced = DESIGN_DATAFLOWS[design][-1]
    assert run(design, a, b, dataflow=forced).dataflow is forced


class TestFixedDataflowBaselines:
    @pytest.mark.parametrize("design,family", [
        ("SIGMA-like", DataflowClass.INNER_PRODUCT),
        ("SpArch-like", DataflowClass.OUTER_PRODUCT),
        ("GAMMA-like", DataflowClass.GUSTAVSON),
    ], ids=BASELINE_IDS)
    def test_supported_dataflows_are_one_family(self, design, family):
        """A baseline's row is its family's M- then N-stationary variant."""
        row = DESIGN_DATAFLOWS[design]
        assert [d.dataflow_class for d in row] == [family, family]
        assert row[0].is_m_stationary and row[1].is_n_stationary

    @pytest.mark.parametrize("design", BASELINES, ids=BASELINE_IDS)
    def test_default_choice_is_m_stationary(self, design):
        a, b = pair(seed=1)
        assert run(design, a, b).dataflow.is_m_stationary

    @pytest.mark.parametrize("design", BASELINES)
    def test_runs_the_first_of_its_row(self, design):
        a, b = pair(seed=3)
        result = run(design, a, b, layer_name="L")
        assert result.dataflow is DESIGN_DATAFLOWS[design][0]
        assert (result.accelerator, result.layer_name) == (design, "L")
        assert result.total_cycles > 0

    def test_unsupported_forced_dataflow_rejected(self):
        a, b = pair(seed=4)
        with pytest.raises(ValueError, match="SIGMA-like does not support"):
            run("SIGMA-like", a, b, dataflow=Dataflow.GUST_M)


class TestFlexagon:
    def test_supports_all_six_dataflows(self):
        assert DESIGN_DATAFLOWS["Flexagon"] == tuple(Dataflow)

    def test_never_slower_than_fixed_baselines_on_representative_layers(self):
        """The headline claim: Flexagon, configured by its oracle mapper as
        the product runs it, matches the best fixed design on every layer."""
        for name in ("SQ5", "R6", "MB215"):
            spec = get_representative_layer(name)
            a, b = materialize_layer(spec, scale=0.35)
            flex_cycles = run("Flexagon", a, b).total_cycles
            best_baseline = min(run(design, a, b).total_cycles for design in BASELINES)
            assert flex_cycles <= best_baseline


class TestCpuBaseline:
    def test_cycles_scale_with_work(self):
        cpu = CpuMklLikeBaseline()
        small = cpu.run_layer(*pair(seed=7, m=20, k=20, n=20))
        large = cpu.run_layer(*pair(seed=7, m=80, k=80, n=80))
        assert large.cycles > small.cycles

    def test_seconds_follow_frequency(self):
        cpu = CpuMklLikeBaseline(CpuConfig(frequency_hz=1e9))
        result = cpu.run_layer(*pair(seed=8))
        assert result.seconds == pytest.approx(result.cycles / 1e9)

    def test_shape_mismatch_rejected(self):
        a = random_sparse(4, 5, 0.5, seed=1)
        b = random_sparse(6, 4, 0.5, seed=2)
        with pytest.raises(ValueError):
            CpuMklLikeBaseline().run_layer(a, b)

    def test_accelerators_are_much_faster_than_cpu(self):
        """Fig. 12's qualitative claim: the accelerators beat MKL by >10x."""
        spec = get_representative_layer("SQ11")
        a, b = materialize_layer(spec, scale=0.5)
        cpu = CpuMklLikeBaseline()
        cpu_seconds = cpu.run_layer(a, b).seconds
        accel_result = run("Flexagon", a, b)
        accel_seconds = CONFIG.cycles_to_seconds(accel_result.total_cycles)
        assert cpu_seconds / accel_seconds > 5.0


class TestAreaPowerModel:
    def test_table8_reference_values(self):
        sigma = accelerator_area_power("SIGMA-like")
        sparch = accelerator_area_power("SpArch-like")
        gamma = accelerator_area_power("GAMMA-like")
        flexagon = accelerator_area_power("Flexagon")
        assert sigma.total_area == pytest.approx(4.21, rel=0.02)
        assert sparch.total_area == pytest.approx(5.14, rel=0.02)
        assert gamma.total_area == pytest.approx(4.62, rel=0.02)
        assert flexagon.total_area == pytest.approx(5.28, rel=0.02)
        assert flexagon.total_power == pytest.approx(2998, rel=0.02)
        assert sigma.psram_area == 0.0

    def test_flexagon_overheads_match_paper_percentages(self):
        flexagon = accelerator_area_power("Flexagon")
        sigma = accelerator_area_power("SIGMA-like")
        sparch = accelerator_area_power("SpArch-like")
        gamma = accelerator_area_power("GAMMA-like")
        assert flexagon.total_area / sigma.total_area == pytest.approx(1.25, abs=0.03)
        assert flexagon.total_area / sparch.total_area == pytest.approx(1.03, abs=0.03)
        assert flexagon.total_area / gamma.total_area == pytest.approx(1.14, abs=0.03)

    def test_mrn_is_larger_than_fan_and_merger(self):
        flexagon = accelerator_area_power("Flexagon")
        sigma = accelerator_area_power("SIGMA-like")
        gamma = accelerator_area_power("GAMMA-like")
        assert flexagon.rn_area > sigma.rn_area
        assert flexagon.rn_area > gamma.rn_area

    def test_scaling_with_configuration(self):
        big = accelerator_area_power("Flexagon", default_config(num_multipliers=128))
        ref = accelerator_area_power("Flexagon")
        assert big.rn_area == pytest.approx(2 * ref.rn_area)
        assert big.cache_area == pytest.approx(ref.cache_area)

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            accelerator_area_power("TPU")

    def test_naive_design_is_larger(self):
        comparison = naive_triple_network_area()
        flexagon_total = sum(comparison["Flexagon"].values())
        naive_total = sum(comparison["Naive"].values())
        assert naive_total > flexagon_total
        # The paper attributes the overhead mostly to muxes/demuxes (~25%).
        assert comparison["Naive"]["mux_demux"] == pytest.approx(
            0.25 * flexagon_total, rel=0.05
        )

    def test_performance_per_area(self):
        assert performance_per_area(100.0, 2.0) == pytest.approx(1 / 200.0)
        with pytest.raises(ValueError):
            performance_per_area(0.0, 1.0)
