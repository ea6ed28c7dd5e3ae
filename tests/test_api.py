"""Tests of the public API facade (Session, requests, responses, figures).

Covers the facade's contracts:

* **Sessions** own settings + runner + cache and memoize the two shared
  experiment grids per session.
* **Requests** are declarative and hashable; sweeps compile to the expected
  job grids and honour configuration overrides and pinned scales.
* **Responses** round-trip through JSON with identical figure rows.
* **Cache-served figures** — a warm result cache answers a FigureQuery with
  zero executed jobs and byte-identical JSON (the CLI acceptance contract).
"""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    FIGURES,
    FigureQuery,
    FigureResult,
    Session,
    SweepSpec,
    SweepResult,
    figure_ids,
    normalize_figure_id,
)
from repro.experiments import (
    EndToEndResults,
    LayerwiseResults,
    best_dataflow_per_layer_rows,
    default_settings,
    end_to_end_speedup_rows,
    layerwise_speedup_rows,
    miss_rate_rows,
    model_statistics_rows,
    offchip_traffic_rows,
    onchip_traffic_rows,
    performance_per_area_rows,
)
from repro.metrics.results import LayerSimResult, ModelSimResult
from repro.runtime import CPU_DESIGN, DESIGN_ORDER, BatchRunner, ResultCache
from repro.sparse import random_sparse

#: The tiny budgets of the suite-wide ``tiny_session`` fixture.
TINY = default_settings(max_dense_macs=2e5, max_layers_per_model=3)

#: Even tinier budgets for the cold/warm cache tests that re-run the grid.
MICRO = default_settings(max_dense_macs=1e5, max_layers_per_model=2)


# ----------------------------------------------------------------------
# Session facade
# ----------------------------------------------------------------------
class TestSession:
    def test_owns_settings_runner_and_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        session = Session(TINY, runner=BatchRunner(parallel=False, cache=cache))
        assert session.settings is TINY
        assert session.cache is cache
        assert session.stats.submitted == 0

    def test_runner_and_knobs_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="runner or runner knobs"):
            Session(TINY, runner=BatchRunner(), parallel=False)

    def test_knobs_build_the_runner(self, tmp_path):
        session = Session(TINY, parallel=False, max_workers=1, cache=None)
        assert session.runner.parallel is False
        assert session.cache is None

    def test_end_to_end_is_memoized_per_session(self, tiny_session):
        assert tiny_session.end_to_end() is tiny_session.end_to_end()

    def test_layerwise_is_memoized_per_session(self, tiny_session):
        assert tiny_session.layerwise() is tiny_session.layerwise()

    def test_simulate_runs_each_design(self):
        a = random_sparse(30, 40, density=0.3, seed=0)
        b = random_sparse(40, 20, density=0.3, seed=1)
        session = Session(TINY, parallel=False, cache=None)
        results = session.simulate(a, b, layer_name="adhoc")
        assert [r.accelerator for r in results] == list(DESIGN_ORDER)
        assert all(r.layer_name == "adhoc" for r in results)

    def test_figures_lists_the_registry(self, tiny_session):
        assert tiny_session.figures() == figure_ids()


class TestSessionThreadSafety:
    def test_concurrent_figure_calls_compute_the_grid_once(self, tmp_path):
        """Regression: hammering ``Session.figure`` from threads must behave
        like one computation — the memo lock makes the first caller compute
        and every concurrent caller block then reuse, so the grid's job
        count is submitted exactly once and all answers are identical."""
        session = Session(
            MICRO, runner=BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        )
        grid_size = len(session.required_jobs("fig12"))
        assert grid_size > 0
        barrier = threading.Barrier(8)
        payloads: list[str] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def hammer() -> None:
            try:
                barrier.wait(timeout=60)
                payload = session.figure("fig12").to_json()
                with lock:
                    payloads.append(payload)
            except BaseException as error:  # pragma: no cover - failure path
                with lock:
                    errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        assert len(set(payloads)) == 1 and len(payloads) == 8
        assert session.stats.submitted == grid_size
        assert session.required_jobs("fig12") == []


class TestRequiredJobs:
    def test_sweeps_compile_their_grid(self):
        session = Session(TINY, parallel=False, cache=None)
        spec = SweepSpec(layers=("R6", "A2"), designs=("SIGMA-like",))
        assert len(session.required_jobs(spec)) == 2

    def test_static_and_area_figures_need_nothing(self):
        session = Session(TINY, parallel=False, cache=None)
        assert session.required_jobs("table3") == []
        assert session.required_jobs(FigureQuery("table8")) == []

    def test_memoized_grids_need_nothing(self, tiny_session):
        tiny_session.end_to_end()
        assert tiny_session.required_jobs("fig12") == []


# ----------------------------------------------------------------------
# FigureQuery + registry
# ----------------------------------------------------------------------
class TestFigureQuery:
    @pytest.mark.parametrize("alias", ["fig12", "Fig. 12", "FIGURE12", "12", "fig012"])
    def test_aliases_normalise(self, alias):
        assert FigureQuery(alias).figure == "fig12"

    def test_normalize_strips_leading_zeros(self):
        assert normalize_figure_id("fig01") == "fig1"

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError, match="figure identifier"):
            FigureQuery("nope")

    def test_unknown_figure_raises_with_help(self, tiny_session):
        with pytest.raises(KeyError, match="known figures"):
            tiny_session.figure("fig99")

    def test_record_round_trip(self):
        query = FigureQuery("table2")
        assert FigureQuery.from_record(query.to_record()) == query

    def test_registry_covers_the_paper(self):
        assert set(FIGURES) == {
            "fig1", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "fig18", "table2", "table3", "table4", "table6", "table8",
        }

    @pytest.mark.parametrize("figure", ["fig17", "table3", "table4", "table6", "table8"])
    def test_static_and_area_figures_need_no_simulation(self, figure):
        session = Session(TINY, parallel=False, cache=None)
        result = session.figure(figure)
        assert result.rows
        assert session.stats.submitted == 0

    def test_every_figure_is_answerable(self, tiny_session):
        for figure in figure_ids():
            result = tiny_session.figure(figure)
            assert result.figure == figure
            assert result.rows, figure


# ----------------------------------------------------------------------
# Warm-cache figure serving (the CLI acceptance contract)
# ----------------------------------------------------------------------
class TestFigureFromWarmCache:
    def test_second_session_executes_zero_jobs_and_matches_bytes(self, tmp_path):
        cold = Session(MICRO, runner=BatchRunner(parallel=False, cache=ResultCache(tmp_path)))
        first = cold.figure("fig12")
        assert cold.stats.executed > 0

        warm = Session(MICRO, runner=BatchRunner(parallel=False, cache=ResultCache(tmp_path)))
        second = warm.figure("fig12")
        assert warm.stats.executed == 0
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits == warm.stats.submitted > 0
        assert second.to_json() == first.to_json()


# ----------------------------------------------------------------------
# SweepSpec
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_normalises_constructor_arguments(self):
        spec = SweepSpec(
            models="SQ, V",
            layers=["R6"],
            designs="Flexagon",
            config_overrides={"num_multipliers": 16},
        )
        assert spec.models == ("SQ", "V")
        assert spec.layers == ("R6",)
        assert spec.designs == ("Flexagon",)
        assert spec.config_overrides == (("num_multipliers", 16),)

    def test_is_hashable_with_stable_key(self):
        one = SweepSpec(layers="R6", config_overrides={"num_multipliers": 16})
        two = SweepSpec(layers=("R6",), config_overrides=[("num_multipliers", 16)])
        assert one == two
        assert hash(one) == hash(two)
        assert one.key() == two.key()
        assert one.key() != SweepSpec(layers="A2").key()

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown design"):
            SweepSpec(layers="R6", designs="TPU-like")
        with pytest.raises(ValueError, match="unknown model"):
            SweepSpec(models="GPT")
        with pytest.raises(ValueError, match="unknown layer"):
            SweepSpec(layers="R99")
        with pytest.raises(ValueError, match="at least one model or layer"):
            SweepSpec()
        with pytest.raises(ValueError, match="unknown config override"):
            SweepSpec(layers="R6", config_overrides={"str_cache": 1024})

    def test_rejects_degenerate_layer_caps(self):
        with pytest.raises(ValueError, match="max_layers_per_model"):
            SweepSpec(models="SQ", max_layers_per_model=0)
        with pytest.raises(ValueError, match="max_layers_per_model"):
            SweepSpec(models="SQ", max_layers_per_model=-1)

    def test_record_round_trip(self):
        spec = SweepSpec(models="SQ", layers="R6", scale=0.2,
                         config_overrides={"psram_bytes": 4096})
        assert SweepSpec.from_record(spec.to_record()) == spec

    def test_compile_crosses_workloads_and_designs(self):
        spec = SweepSpec(layers=("R6", "A2"), designs=("SIGMA-like", CPU_DESIGN))
        jobs, meta = spec.compile(TINY)
        assert len(jobs) == len(meta) == 4
        assert {m["layer"] for m in meta} == {"R6", "A2"}
        assert {m["design"] for m in meta} == {"SIGMA-like", CPU_DESIGN}

    def test_compile_applies_overrides_and_pinned_scale(self):
        spec = SweepSpec(
            layers="R6",
            designs=("SIGMA-like",),
            scale=0.2,
            config_overrides={"num_multipliers": 16, "str_cache_bytes": 8 * 1024},
        )
        jobs, _ = spec.compile(TINY)
        (job,) = jobs
        assert job.scale == 0.2
        # A pinned scale uses the overridden config as-is (no SRAM rescaling).
        assert job.config.num_multipliers == 16
        assert job.config.str_cache_bytes == 8 * 1024

    def test_compile_models_follow_the_settings_policy(self):
        spec = SweepSpec(models="SQ", designs=("Flexagon",), max_layers_per_model=2)
        jobs, meta = spec.compile(TINY)
        assert len(jobs) == 2
        # The settings' scaling policy shrinks the config for large layers.
        assert all(job.config.num_multipliers <= TINY.config.num_multipliers
                   for job in jobs)
        assert all(m["model"] == "SQ" for m in meta)

    def test_overrides_layer_on_top_of_the_session_config(self):
        """Regression: only the named fields change; the session's custom
        config values survive (overrides must not reset to Table 5)."""
        from dataclasses import replace

        from repro.arch.config import default_config

        custom = replace(TINY, config=default_config(str_cache_bytes=2 * 1024 * 1024))
        spec = SweepSpec(
            layers="R6", designs=("SIGMA-like",), scale=0.2,
            config_overrides={"num_multipliers": 16},
        )
        (job,), _ = spec.compile(custom)
        assert job.config.num_multipliers == 16
        assert job.config.num_adders == 15  # re-derived with the datapath
        assert job.config.str_cache_bytes == 2 * 1024 * 1024  # preserved

    def test_model_sweep_shares_job_keys_with_the_end_to_end_grid(self):
        """A model sweep and the figure grid must build identical SimJob keys
        (same sampling/scaling/seed policy), so they reuse each other's
        cache entries."""
        from repro.experiments import end_to_end_jobs

        grid_jobs, _, _ = end_to_end_jobs(TINY)
        grid_keys = {job.key() for job in grid_jobs}
        sweep_jobs, _ = SweepSpec(models="SQ", designs=DESIGN_ORDER).compile(TINY)
        assert {job.key() for job in sweep_jobs} <= grid_keys


class TestSweepExecution:
    def test_rows_are_labelled_and_json_safe(self):
        session = Session(TINY, parallel=False, cache=None)
        sweep = session.sweep(
            SweepSpec(layers="A2", designs=("GAMMA-like", CPU_DESIGN), scale=0.05)
        )
        gamma, cpu = sweep.rows
        assert gamma["design"] == "GAMMA-like"
        assert gamma["dataflow"] == "GUST_M"
        assert gamma["cycles"] > 0 and gamma["seconds"] > 0
        assert cpu["design"] == CPU_DESIGN
        assert cpu["dataflow"] is None and cpu["seconds"] > 0
        assert SweepResult.from_json(sweep.to_json()).rows == sweep.rows

    def test_warm_cache_answers_a_repeat_sweep(self, tmp_path):
        spec = SweepSpec(layers="A2", designs=("SIGMA-like",), scale=0.05)
        cold = Session(TINY, runner=BatchRunner(parallel=False, cache=ResultCache(tmp_path)))
        first = cold.sweep(spec)
        warm = Session(TINY, runner=BatchRunner(parallel=False, cache=ResultCache(tmp_path)))
        second = warm.sweep(spec)
        assert warm.stats.executed == 0
        assert second.to_json() == first.to_json()


# ----------------------------------------------------------------------
# JSON round-trips of every response record
# ----------------------------------------------------------------------
class TestJsonRoundTrips:
    def test_layer_result_record(self, tiny_session):
        record = tiny_session.layerwise().result("A2", "Flexagon")
        restored = LayerSimResult.from_record(record.to_record())
        assert restored.to_record() == record.to_record()
        assert restored.total_cycles == record.total_cycles
        assert restored.dataflow is record.dataflow
        assert restored.dram.str_read_bytes == record.dram.str_read_bytes

    def test_model_result_record(self, tiny_session):
        record = tiny_session.end_to_end().accelerator_results["SQ"]["Flexagon"]
        restored = ModelSimResult.from_record(record.to_record())
        assert restored.to_record() == record.to_record()
        assert restored.total_cycles == record.total_cycles

    def test_end_to_end_results_keep_identical_figure_rows(self, tiny_session):
        results = tiny_session.end_to_end()
        restored = EndToEndResults.from_json(results.to_json())
        assert restored.to_json() == results.to_json()
        for rows in (end_to_end_speedup_rows, performance_per_area_rows,
                     best_dataflow_per_layer_rows, model_statistics_rows):
            assert rows(restored) == rows(results), rows.__name__

    def test_layerwise_results_keep_identical_figure_rows(self, tiny_session):
        results = tiny_session.layerwise()
        restored = LayerwiseResults.from_json(results.to_json())
        assert restored.to_json() == results.to_json()
        for rows in (layerwise_speedup_rows, onchip_traffic_rows,
                     miss_rate_rows, offchip_traffic_rows):
            assert rows(restored) == rows(results), rows.__name__

    def test_figure_result_round_trip(self, tiny_session):
        for figure in ("fig13", "table8", "table3"):
            result = tiny_session.figure(figure)
            restored = FigureResult.from_json(result.to_json())
            assert restored.rows == result.rows
            assert restored.to_json() == result.to_json()

    def test_stale_schema_is_rejected(self, tiny_session):
        record = tiny_session.figure("table3").to_record()
        record["schema"] = 999
        with pytest.raises(ValueError, match="unsupported record schema"):
            FigureResult.from_record(record)

    def test_wrong_kind_is_rejected(self, tiny_session):
        record = tiny_session.figure("table3").to_record()
        with pytest.raises(ValueError, match="expected a"):
            SweepResult.from_record(record)

    def test_rows_are_strict_json(self):
        """Non-finite floats are normalised to null so the payload parses in
        any strict JSON consumer (the wire contract of the responses)."""
        from repro.api import jsonify_rows

        rows = jsonify_rows([{"speedup": float("inf"), "x": float("nan"), "ok": 1.5}])
        assert rows == [{"speedup": None, "x": None, "ok": 1.5}]
        result = FigureResult(figure="fig12", title="t", rows=rows)
        assert '"speedup": null' in result.to_json()
