"""Golden regression tests for the reproduced figures' ordering invariants.

The exact cycle counts of the scaled harness are allowed to drift as the
models evolve, but the *orderings* the paper's figures report are not: these
tests pin the structural shape of the Fig. 12 and Fig. 18 row sets and the
dominance relations the oracle-mapped Flexagon must satisfy, so a runtime or
executor refactor can never silently change a reproduced figure.
"""

from __future__ import annotations

import pytest

from repro.experiments import end_to_end_speedup_rows, performance_per_area_rows
from repro.metrics.results import geometric_mean
from repro.runtime import DESIGN_ORDER

FIXED_DESIGNS = ("SIGMA-like", "SpArch-like", "GAMMA-like")


@pytest.fixture(scope="module")
def end_to_end(tiny_session):
    # The suite-wide tiny session: its grid is shared with the other
    # modules, so this one adds no extra simulation time.
    return tiny_session.end_to_end()


@pytest.fixture(scope="module")
def speedup_rows(end_to_end):
    return end_to_end_speedup_rows(end_to_end)


@pytest.fixture(scope="module")
def perf_area_rows(end_to_end):
    return performance_per_area_rows(end_to_end)


# ----------------------------------------------------------------------
# Figure 12: end-to-end speed-up over the CPU baseline
# ----------------------------------------------------------------------
class TestEndToEndSpeedupGolden:
    def test_row_order_matches_table2_plus_geomean(self, end_to_end, speedup_rows):
        assert [row["model"] for row in speedup_rows] == end_to_end.model_names() + [
            "GEOMEAN"
        ]

    def test_row_columns_are_the_design_order(self, speedup_rows):
        for row in speedup_rows:
            assert list(row) == ["model", "CPU-MKL", *DESIGN_ORDER]

    def test_cpu_column_is_the_unit_baseline(self, speedup_rows):
        assert all(row["CPU-MKL"] == 1.0 for row in speedup_rows)

    def test_all_speedups_positive_and_finite(self, speedup_rows):
        for row in speedup_rows:
            for design in DESIGN_ORDER:
                assert 0.0 < row[design] < float("inf"), (row["model"], design)

    def test_flexagon_geomean_dominates_every_fixed_baseline(self, speedup_rows):
        geomean = speedup_rows[-1]
        for design in FIXED_DESIGNS:
            assert geomean["Flexagon"] >= 0.999 * geomean[design], design

    def test_flexagon_cycles_never_exceed_the_best_fixed_design(self, end_to_end):
        """The oracle mapper picks per-layer, so Flexagon lower-bounds the
        fixed designs on every model — the core claim of Fig. 12."""
        for model in end_to_end.model_names():
            per_design = end_to_end.accelerator_results[model]
            flexagon = per_design["Flexagon"].total_cycles
            best_fixed = min(per_design[d].total_cycles for d in FIXED_DESIGNS)
            assert flexagon <= best_fixed * (1 + 1e-9), model

    def test_geomean_row_is_the_geometric_mean_of_the_columns(self, speedup_rows):
        body, geomean = speedup_rows[:-1], speedup_rows[-1]
        for design in DESIGN_ORDER:
            expected = geometric_mean([float(row[design]) for row in body])
            assert geomean[design] == pytest.approx(expected, rel=1e-12), design


# ----------------------------------------------------------------------
# Figure 18: performance per area
# ----------------------------------------------------------------------
class TestPerformancePerAreaGolden:
    def test_row_order_matches_table2_plus_geomean(self, end_to_end, perf_area_rows):
        assert [row["model"] for row in perf_area_rows] == end_to_end.model_names() + [
            "GEOMEAN"
        ]

    def test_sigma_is_its_own_unit_baseline(self, perf_area_rows):
        for row in perf_area_rows:
            assert row["SIGMA-like"] == pytest.approx(1.0, rel=1e-12), row["model"]

    def test_flexagon_geomean_dominates_every_fixed_baseline(self, perf_area_rows):
        geomean = perf_area_rows[-1]
        for design in FIXED_DESIGNS:
            assert geomean["Flexagon"] >= 0.999 * geomean[design], design

    def test_geomean_row_is_the_geometric_mean_of_the_columns(self, perf_area_rows):
        body, geomean = perf_area_rows[:-1], perf_area_rows[-1]
        for design in DESIGN_ORDER:
            expected = geometric_mean([float(row[design]) for row in body])
            assert geomean[design] == pytest.approx(expected, rel=1e-12), design
