"""Tests of the batched simulation runtime (jobs, cache, runner).

Covers the three properties the runtime guarantees:

* **Determinism** — ``BatchRunner(parallel=True)`` and
  ``BatchRunner(parallel=False)`` produce bit-identical results for the same
  settings.
* **Memoization** — a warm on-disk cache answers a repeated sweep without
  re-simulating any layer (asserted through the runner's job counters).
* **Stable identity** — job keys are pure content hashes: equal inputs give
  equal keys in any process, regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.api import Session
from repro.arch.config import default_config
from repro.dataflows import Dataflow
from repro.experiments import default_settings
from repro.runtime import (
    CPU_DESIGN,
    DESIGN_ORDER,
    ENGINE_DESIGN,
    MISS,
    BatchRunner,
    ResultCache,
    SimJob,
    execute_job,
    reset_shared_pool,
)
from repro.sparse import random_sparse
from repro.workloads.representative import REPRESENTATIVE_LAYERS

#: Tiny budgets: the runtime tests re-run the end-to-end sweep several times.
SETTINGS = default_settings(max_dense_macs=1e5, max_layers_per_model=2)


def _layer_job(design: str = "SIGMA-like", index: int = 0, **overrides) -> SimJob:
    spec = REPRESENTATIVE_LAYERS[index]
    kwargs = dict(
        design=design,
        config=default_config(),
        spec=spec,
        scale=0.05,
        seed=spec.deterministic_seed(0),
        layer_name=spec.name,
    )
    kwargs.update(overrides)
    return SimJob(**kwargs)


# ----------------------------------------------------------------------
# SimJob construction and keys
# ----------------------------------------------------------------------
class TestSimJob:
    def test_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            _layer_job(design="TPU-like")

    def test_requires_spec_or_operands(self):
        with pytest.raises(ValueError, match="layer spec or"):
            SimJob(design="SIGMA-like", config=default_config())

    def test_rejects_spec_and_operands_together(self):
        a = random_sparse(8, 8, density=0.5, seed=0)
        b = random_sparse(8, 8, density=0.5, seed=1)
        with pytest.raises(ValueError, match="either a layer spec"):
            SimJob(
                design="SIGMA-like",
                config=default_config(),
                spec=REPRESENTATIVE_LAYERS[0],
                a=a,
                b=b,
            )

    def test_rejects_half_an_operand_pair(self):
        a = random_sparse(8, 8, density=0.5, seed=0)
        with pytest.raises(ValueError, match="together"):
            SimJob(design="SIGMA-like", config=default_config(), a=a)

    def test_engine_jobs_need_a_dataflow(self):
        with pytest.raises(ValueError, match="force a dataflow"):
            _layer_job(design=ENGINE_DESIGN)

    def test_equal_jobs_have_equal_keys(self):
        assert _layer_job().key() == _layer_job().key()

    def test_key_covers_the_inputs(self):
        base = _layer_job()
        assert base.key() != _layer_job(design="GAMMA-like").key()
        assert base.key() != _layer_job(seed=12345).key()
        assert base.key() != _layer_job(scale=0.06).key()
        assert base.key() != _layer_job(config=default_config(num_multipliers=32)).key()
        assert base.key() != _layer_job(index=1).key()

    def test_key_covers_operand_contents(self):
        config = default_config()
        a = random_sparse(10, 10, density=0.4, seed=0)
        b1 = random_sparse(10, 10, density=0.4, seed=1)
        b2 = random_sparse(10, 10, density=0.4, seed=2)
        job1 = SimJob(design="SIGMA-like", config=config, a=a, b=b1)
        job2 = SimJob(design="SIGMA-like", config=config, a=a, b=b2)
        assert job1.key() != job2.key()

    def test_default_seed_is_normalised_into_the_key(self):
        spec = REPRESENTATIVE_LAYERS[0]
        implicit = _layer_job(seed=None)
        explicit = _layer_job(seed=spec.deterministic_seed())
        assert implicit.key() == explicit.key()


class TestKeyStabilityAcrossProcesses:
    def test_key_is_independent_of_the_hash_seed(self):
        """The same job must hash identically in a fresh interpreter."""
        job = _layer_job()
        code = (
            "from repro.arch.config import default_config\n"
            "from repro.runtime import SimJob\n"
            "from repro.workloads.representative import REPRESENTATIVE_LAYERS\n"
            "spec = REPRESENTATIVE_LAYERS[0]\n"
            "job = SimJob(design='SIGMA-like', config=default_config(), spec=spec,\n"
            "             scale=0.05, seed=spec.deterministic_seed(0), layer_name=spec.name)\n"
            "print(job.key())\n"
        )
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert proc.stdout.strip() == job.key()


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is MISS
        cache.put("ab" * 32, {"cycles": 42.0})
        assert cache.get("ab" * 32) == {"cycles": 42.0}
        assert cache.entry_count() == 1

    def test_survives_a_new_instance(self, tmp_path):
        ResultCache(tmp_path).put("cd" * 32, [1, 2, 3])
        assert ResultCache(tmp_path).get("cd" * 32) == [1, 2, 3]

    def test_returns_fresh_copies(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ef" * 32, {"mutable": []})
        first = cache.get("ef" * 32)
        first["mutable"].append("oops")
        assert cache.get("ef" * 32) == {"mutable": []}

    def test_corrupt_entry_is_a_miss_and_gets_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "12" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is MISS
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("34" * 32, 1)
        cache.put("56" * 32, 2)
        stranded = cache.path_for("78" * 32).parent / "killed-writer.tmp"
        stranded.parent.mkdir(parents=True, exist_ok=True)
        stranded.write_bytes(b"partial")
        assert cache.clear() == 2
        assert cache.get("34" * 32) is MISS
        assert cache.entry_count() == 0
        assert not stranded.exists()

    def test_memory_level_is_bounded(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_module

        monkeypatch.setattr(cache_module, "MEMORY_ENTRY_LIMIT", 3)
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" * 32 for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert len(cache._memory) == 3
        # Evicted entries fall back to disk transparently.
        assert cache.get(keys[0]) == 0

    def test_missing_probes_without_reading(self, tmp_path):
        cache = ResultCache(tmp_path)
        present = ["ab" * 32, "cd" * 32]
        absent = ["ef" * 32, "01" * 32]
        for key in present:
            cache.put(key, {"cycles": 1.0})
        probe = ResultCache(tmp_path)  # cold memory level: pure disk probe
        assert sorted(probe.missing(present + absent)) == sorted(absent)
        assert probe.missing(present) == []
        # The probe listed shards but never decoded an entry into memory.
        assert not probe._memory

    def test_missing_on_an_empty_cache_reports_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        keys = ["ab" * 32, "cd" * 32]
        assert cache.missing(keys) == keys

    def test_missing_sees_the_memory_level(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, 1)
        cache.path_for("ab" * 32).unlink()  # only the memory level holds it now
        assert cache.missing(["ab" * 32, "ef" * 32]) == ["ef" * 32]

    def test_stray_flat_entry_is_a_miss(self, tmp_path):
        """A ``<dir>/<key>.pkl`` file outside every shard is not an entry."""
        import pickle

        key = "cd" * 32
        flat = tmp_path / f"{key}.pkl"
        flat.write_bytes(pickle.dumps({"cycles": 7.0}))
        cache = ResultCache(tmp_path)
        assert cache.get(key) is MISS
        assert cache.get_many([key]) == {}
        assert cache.missing([key]) == [key]
        assert cache.keys() == []
        assert cache.entry_count() == 0
        assert flat.exists() and not cache.path_for(key).exists()


class TestResultCacheConcurrentMutation:
    """``missing()``/``get_many()`` against a directory another writer is
    mutating underneath them — the situation every fabric worker and every
    ``cache pull`` peer puts a shared cache directory in."""

    @staticmethod
    def _keys(count):
        import hashlib

        return [hashlib.sha256(f"entry-{i}".encode()).hexdigest() for i in range(count)]

    def test_probes_survive_a_concurrent_mutator_thread(self, tmp_path):
        """No probe may crash or return garbage while entries appear and
        vanish mid-listing; found values must always decode correctly."""
        import random
        import threading

        keys = self._keys(48)
        writer = ResultCache(tmp_path)
        stop = threading.Event()
        failures: list[BaseException] = []

        def mutate():
            rng = random.Random(7)
            try:
                while not stop.is_set():
                    key = rng.choice(keys)
                    if rng.random() < 0.6:
                        writer.put(key, {"value": key})
                    else:
                        writer.path_for(key).unlink(missing_ok=True)
            except BaseException as error:  # surfaced by the main thread
                failures.append(error)

        thread = threading.Thread(target=mutate, daemon=True)
        thread.start()
        try:
            for _ in range(150):
                # Fresh instances: every probe is a pure disk probe, racing
                # the writer's os.replace/unlink rather than its memory.
                reader = ResultCache(tmp_path)
                absent = reader.missing(keys)
                found = reader.get_many(keys)
                assert set(found) <= set(keys)
                assert set(absent) <= set(keys)
                for key, value in found.items():
                    assert value == {"value": key}
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not failures, failures

    def test_missing_converges_on_another_processes_writes(self, tmp_path):
        """A writer *process* fills the directory while this process polls
        ``missing()``: the absent set must shrink to empty, and a fresh
        ``get_many`` must then return every entry."""
        import subprocess
        import sys
        import time

        keys = self._keys(16)
        writer = subprocess.Popen(
            [
                sys.executable,
                "-c",
                (
                    "import sys, time\n"
                    "from repro.runtime import ResultCache\n"
                    "cache = ResultCache(sys.argv[1])\n"
                    "for key in sys.argv[2:]:\n"
                    "    cache.put(key, {'value': key})\n"
                    "    time.sleep(0.01)\n"
                ),
                str(tmp_path),
                *keys,
            ],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            reader = ResultCache(tmp_path)
            deadline = time.monotonic() + 120
            while reader.missing(keys):
                assert time.monotonic() < deadline, "writer too slow"
                reader = ResultCache(tmp_path)  # drop the memory level
        finally:
            assert writer.wait(timeout=120) == 0
        found = ResultCache(tmp_path).get_many(keys)
        assert sorted(found) == sorted(keys)
        assert all(found[key] == {"value": key} for key in keys)


class TestResultCachePrune:
    """``prune(max_size_bytes)`` evicts least-recently-written entries first."""

    @staticmethod
    def _filled_cache(tmp_path, count=4):
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" * 32 for i in range(count)]
        for age, key in enumerate(keys):
            cache.put(key, {"payload": "x" * 1000, "key": key})
            # Pin distinct mtimes: keys[0] is the oldest, keys[-1] the newest.
            path = cache.path_for(key)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        return cache, keys

    def test_evicts_oldest_entries_first(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        entry_size = cache.size_bytes() // len(keys)
        report = cache.prune(2 * entry_size)
        assert report.removed_entries == 2
        assert report.remaining_entries == 2
        assert cache.get(keys[0]) is MISS and cache.get(keys[1]) is MISS
        assert cache.get(keys[2]) is not MISS and cache.get(keys[3]) is not MISS

    def test_rewriting_refreshes_an_entrys_rank(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        # Rewrite the oldest entry: it becomes the newest and must survive.
        cache.put(keys[0], {"payload": "x" * 1000, "key": keys[0]})
        entry_size = cache.size_bytes() // len(keys)
        cache.prune(entry_size)
        assert cache.get(keys[0]) is not MISS
        assert cache.get(keys[1]) is MISS

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        report = cache.prune(0)
        assert report.removed_entries == len(keys)
        assert report.remaining_entries == 0
        assert report.remaining_bytes == 0
        assert cache.entry_count() == 0

    def test_prune_within_budget_removes_nothing(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        report = cache.prune(cache.size_bytes())
        assert report.removed_entries == 0
        assert report.freed_bytes == 0
        assert cache.entry_count() == len(keys)

    def test_pruned_entries_leave_the_memory_level_too(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        assert keys[0] in cache._memory
        cache.prune(0)
        assert keys[0] not in cache._memory

    def test_report_accounts_for_bytes(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        before = cache.size_bytes()
        report = cache.prune(before // 2)
        assert report.freed_bytes + report.remaining_bytes == before
        assert report.remaining_bytes == cache.size_bytes()

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            ResultCache(tmp_path).prune(-1)


# ----------------------------------------------------------------------
# BatchRunner behaviour
# ----------------------------------------------------------------------
class TestBatchRunner:
    def test_cache_miss_then_hit(self, tmp_path):
        runner = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        job = _layer_job()
        first = runner.run_one(job)
        assert runner.stats.cache_misses == 1 and runner.stats.executed == 1
        second = runner.run_one(job)
        assert runner.stats.cache_hits == 1
        assert runner.stats.executed == 1  # unchanged: second call hit
        assert second.total_cycles == first.total_cycles

    def test_in_batch_duplicates_execute_once(self, tmp_path):
        runner = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        job = _layer_job()
        results = runner.run([job, job, job])
        assert runner.stats.executed == 1
        # Result records are immutable by contract, so duplicates share one
        # record instead of paying a deep copy per duplicate slot.
        assert results[0] is results[1] is results[2]
        assert len({r.total_cycles for r in results}) == 1

    def test_duplicate_results_are_frozen_not_copied(self, tmp_path):
        """Regression: aliasing is safe because the records cannot mutate."""
        import copy
        from dataclasses import FrozenInstanceError

        calls = []
        original = copy.deepcopy

        def counting_deepcopy(value, *args, **kwargs):
            calls.append(type(value).__name__)
            return original(value, *args, **kwargs)

        runner = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        job = _layer_job()
        try:
            copy.deepcopy = counting_deepcopy
            first, second = runner.run([job, job])
        finally:
            copy.deepcopy = original
        assert first is second
        # Duplicates no longer trigger a deep copy of the result record.
        # (``dataclasses.asdict`` in the key hash deep-copies leaf scalars;
        # only record-level copies would betray the old aliasing guard.)
        assert "LayerSimResult" not in calls and "CpuRunResult" not in calls
        with pytest.raises(FrozenInstanceError):
            first.layer_name = "mutated"

    def test_no_cache_means_no_memoization(self):
        runner = BatchRunner(parallel=False, cache=None)
        job = _layer_job()
        runner.run_one(job)
        runner.run_one(job)
        assert runner.stats.executed == 2

    def test_warm_disk_cache_spans_runner_instances(self, tmp_path):
        cold = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        jobs = [_layer_job(design=d) for d in DESIGN_ORDER + (CPU_DESIGN,)]
        cold.run(jobs)
        assert cold.stats.executed == len(jobs)
        warm = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        warm.run(jobs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(jobs)

    def test_execute_job_matches_runner_result(self):
        job = _layer_job(design="GAMMA-like")
        direct = execute_job(job)
        via_runner = BatchRunner(parallel=False, cache=None).run_one(job)
        assert via_runner.total_cycles == direct.total_cycles

    def test_engine_job_runs_forced_dataflow(self):
        job = _layer_job(design=ENGINE_DESIGN, dataflow=Dataflow.IP_M)
        result = execute_job(job)
        assert result.dataflow is Dataflow.IP_M
        assert result.total_cycles > 0

    def test_cacheless_runner_disables_nested_trial_cache(self):
        """A ``cache=None`` sweep must not consume persisted mapper trials."""
        from repro.runtime import build_design

        flexagon = build_design("Flexagon", default_config(), trial_cache=None)
        assert flexagon.mapper.runner.cache is None

    def test_custom_cache_dir_reaches_nested_trials(self, tmp_path):
        """Mapper trials land in the sweep's own cache, not the env default."""
        from repro.runtime import build_design, trial_runner

        flexagon = build_design(
            "Flexagon", default_config(), trial_cache=str(tmp_path)
        )
        assert str(flexagon.mapper.runner.cache.directory) == str(tmp_path)
        live = ResultCache(tmp_path)
        in_process = build_design("Flexagon", default_config(), trial_cache=live)
        assert in_process.mapper.runner.cache is live
        shared = build_design("Flexagon", default_config())
        assert shared.mapper.runner is trial_runner()

    def test_cpu_jobs_are_cached_independently_of_the_config(self):
        """One CPU baseline result serves every accelerator design point."""
        small = _layer_job(design=CPU_DESIGN, config=default_config(num_multipliers=16))
        large = _layer_job(design=CPU_DESIGN, config=default_config(num_multipliers=64))
        assert small.key() == large.key()
        assert (
            _layer_job(design="SIGMA-like", config=default_config(num_multipliers=16)).key()
            != _layer_job(design="SIGMA-like", config=default_config(num_multipliers=64)).key()
        )

    def test_hermetic_sweep_never_touches_the_default_cache(self, tmp_path):
        """End to end: a custom-cache run writes trials only under its dir."""
        own = tmp_path / "own"
        runner = BatchRunner(parallel=False, cache=ResultCache(own))
        runner.run_one(_layer_job(design="Flexagon"))
        assert ResultCache(own).entry_count() > 1  # job + its trials


# ----------------------------------------------------------------------
# Parallel vs serial equivalence (acceptance criterion)
# ----------------------------------------------------------------------
def _end_to_end_fingerprint(results) -> dict:
    fingerprint: dict[str, object] = {"cpu": dict(results.cpu_cycles)}
    for model in results.model_names():
        for design, record in results.accelerator_results[model].items():
            fingerprint[f"{model}/{design}"] = [
                (
                    layer.dataflow.name,
                    layer.cycles.stationary,
                    layer.cycles.streaming,
                    layer.cycles.merging,
                    layer.traffic.onchip_bytes,
                    layer.traffic.offchip_bytes,
                )
                for layer in record.layer_results
            ]
    return fingerprint


class TestParallelSerialEquivalence:
    def test_end_to_end_bit_identical(self):
        serial = Session(
            SETTINGS, runner=BatchRunner(parallel=False, cache=None)
        ).end_to_end()
        parallel = Session(
            SETTINGS, runner=BatchRunner(parallel=True, max_workers=4, cache=None)
        ).end_to_end()
        assert _end_to_end_fingerprint(serial) == _end_to_end_fingerprint(parallel)

    def test_layerwise_bit_identical(self):
        serial = Session(
            SETTINGS, runner=BatchRunner(parallel=False, cache=None)
        ).layerwise()
        parallel = Session(
            SETTINGS, runner=BatchRunner(parallel=True, max_workers=4, cache=None)
        ).layerwise()
        for layer in serial.layer_names():
            for design in DESIGN_ORDER:
                assert (
                    serial.result(layer, design).total_cycles
                    == parallel.result(layer, design).total_cycles
                ), (layer, design)


# ----------------------------------------------------------------------
# Warm-cache acceptance: a second sweep simulates nothing
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_persistent_pool_is_reused_across_batches(self):
        from repro.runtime.pool import WorkerPool

        pool = WorkerPool()
        try:
            first = pool.executor(2)
            assert pool.executor(2) is first
            assert pool.width == 2
        finally:
            pool.shutdown()
        assert pool.width == 0

    def test_pool_grows_when_more_workers_are_requested(self):
        from repro.runtime.pool import WorkerPool

        pool = WorkerPool()
        try:
            narrow = pool.executor(1)
            wide = pool.executor(3)
            assert wide is not narrow
            assert pool.width == 3
            # Asking for fewer workers keeps the wide pool.
            assert pool.executor(2) is wide
        finally:
            pool.shutdown()

    def test_growth_retires_the_old_executor_without_breaking_it(self):
        """A concurrent batch holding the pre-growth executor must be able
        to keep submitting to it; growth retires, never tears down in use."""
        from repro.runtime.pool import WorkerPool

        pool = WorkerPool()
        try:
            narrow = pool.executor(1)
            wide = pool.executor(2)
            assert wide is not narrow
            assert narrow.submit(int, "7").result() == 7
            assert wide.submit(int, "8").result() == 8
        finally:
            pool.shutdown()

    def test_broken_executor_is_replaced(self):
        """One crashed batch must not poison every later batch."""
        from repro.runtime.pool import WorkerPool

        pool = WorkerPool()
        try:
            poisoned = pool.executor(1)
            # Simulate a dead worker: the executor flags itself broken and
            # refuses further submissions.
            poisoned._broken = "a worker died"
            replacement = pool.executor(1)
            assert replacement is not poisoned
            assert replacement.submit(int, "7").result() == 7
        finally:
            pool.shutdown()

    def test_retired_executors_are_reaped_on_demand(self):
        """Growth retires the old executor; reaping shuts the retiree down
        without touching the live one (the retired-executor leak fix)."""
        from repro.runtime.pool import WorkerPool

        pool = WorkerPool()
        try:
            narrow = pool.executor(1)
            wide = pool.executor(2)
            assert wide is not narrow
            assert pool.reap_retired() == 1
            assert pool.reap_retired() == 0  # idempotent
            with pytest.raises(RuntimeError):
                narrow.submit(int, "7")  # the retiree is really shut down
            assert wide.submit(int, "8").result() == 8
        finally:
            pool.shutdown()

    def test_atexit_sweep_reaps_every_live_pool(self):
        """A pool whose owner never calls shutdown() must still get its
        retirees reaped by the module-level atexit sweep."""
        from repro.runtime.pool import WorkerPool, sweep_retired_pools

        pool = WorkerPool()
        try:
            abandoned = pool.executor(1)
            pool.executor(2)  # retires the narrow executor
            assert sweep_retired_pools() >= 1
            with pytest.raises(RuntimeError):
                abandoned.submit(int, "7")
        finally:
            pool.shutdown()

    def test_env_knob_validates(self, monkeypatch):
        from repro.runtime.pool import pool_mode_from_env

        monkeypatch.setenv("REPRO_POOL", "remote")
        assert pool_mode_from_env() == "remote"
        monkeypatch.delenv("REPRO_POOL")
        assert pool_mode_from_env() == "persistent"
        monkeypatch.setenv("REPRO_POOL", "bogus")
        with pytest.raises(ValueError, match="REPRO_POOL"):
            pool_mode_from_env()

    @pytest.mark.parametrize("pool_mode", ["persistent", "remote"])
    def test_both_pool_modes_match_serial_results(self, tmp_path, pool_mode):
        import contextlib

        from fabric_chaos import worker_fleet

        from repro.fabric import (
            Coordinator,
            WorkQueue,
            reset_shared_fabric,
            set_shared_coordinator,
        )

        jobs = [
            _layer_job(design=design, index=index)
            for index in (0, 1)
            for design in DESIGN_ORDER + (CPU_DESIGN,)
        ]
        serial = BatchRunner(parallel=False, cache=None).run(jobs)
        runner = BatchRunner(
            parallel=True,
            max_workers=2,
            cache=ResultCache(tmp_path / pool_mode),
            pool_mode=pool_mode,
        )
        workers = contextlib.nullcontext()
        if pool_mode == "remote":
            # One in-process pull worker drains the shared coordinator's queue.
            queue = WorkQueue()
            set_shared_coordinator(Coordinator(queue, cache=runner.cache))
            workers = worker_fleet(queue, [{"cache_dir": tmp_path / "worker"}])
        try:
            with workers:
                parallel = runner.run(jobs)
        finally:
            reset_shared_pool()
            reset_shared_fabric()
        for design_serial, design_parallel in zip(serial, parallel):
            assert design_serial.cycles == design_parallel.cycles
            assert design_serial.stats == design_parallel.stats


class TestCostModel:
    def test_flexagon_outweighs_fixed_designs(self):
        flexagon = _layer_job(design="Flexagon")
        sigma = _layer_job(design="SIGMA-like")
        cpu = _layer_job(design=CPU_DESIGN)
        from repro.runtime import estimate_job_cost

        assert estimate_job_cost(flexagon) > 5 * estimate_job_cost(sigma)
        assert estimate_job_cost(cpu) < estimate_job_cost(sigma)

    def test_cost_scales_with_the_layer(self):
        from repro.runtime import estimate_job_cost

        small = _layer_job(scale=0.05)
        large = _layer_job(scale=0.2)
        assert estimate_job_cost(large) > estimate_job_cost(small)

    def test_operand_jobs_use_nnz(self):
        from repro.runtime import estimate_job_cost

        config = default_config()
        a = random_sparse(16, 16, density=0.5, seed=0)
        b = random_sparse(16, 16, density=0.5, seed=1)
        job = SimJob(design="SIGMA-like", config=config, a=a, b=b)
        expected = max(1.0, a.nnz * b.nnz / a.ncols)
        assert estimate_job_cost(job) == expected

    def test_group_key_is_the_operand_identity(self):
        from repro.runtime import job_group_key

        same_layer = [
            _layer_job(design=design) for design in DESIGN_ORDER + (CPU_DESIGN,)
        ]
        assert len({job_group_key(job) for job in same_layer}) == 1
        assert job_group_key(_layer_job()) != job_group_key(_layer_job(index=1))
        assert job_group_key(_layer_job()) != job_group_key(_layer_job(scale=0.06))

        config = default_config()
        a = random_sparse(8, 8, density=0.5, seed=0)
        b = random_sparse(8, 8, density=0.5, seed=1)
        pair = [
            SimJob(design=design, config=config, a=a, b=b)
            for design in ("SIGMA-like", "GAMMA-like")
        ]
        assert job_group_key(pair[0]) == job_group_key(pair[1])


class TestStreamingProgress:
    def test_on_result_counts_every_job(self, tmp_path):
        runner = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        jobs = [_layer_job(design=d) for d in ("SIGMA-like", "GAMMA-like")]
        seen: list[tuple[int, int]] = []
        runner.run(jobs, on_result=lambda done, total: seen.append((done, total)))
        assert seen[0] == (0, 2)  # after the (empty) cache scan
        assert seen[-1] == (2, 2)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    def test_cache_hits_are_reported_before_execution(self, tmp_path):
        runner = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        jobs = [_layer_job(design=d) for d in ("SIGMA-like", "GAMMA-like")]
        runner.run(jobs)
        seen: list[tuple[int, int]] = []
        runner.run(jobs, on_result=lambda done, total: seen.append((done, total)))
        assert seen == [(2, 2)]  # everything answered by the scan

    def test_runner_wide_default_callback(self, tmp_path):
        seen: list[tuple[int, int]] = []
        runner = BatchRunner(
            parallel=False,
            cache=ResultCache(tmp_path),
            on_result=lambda done, total: seen.append((done, total)),
        )
        runner.run_one(_layer_job())
        assert seen[-1] == (1, 1)

    def test_submit_runs_the_batch_off_thread(self, tmp_path):
        """``submit`` is ``run`` behind a Future — same results, live
        progress, counters intact (the serving front-end's async hook)."""
        import threading

        runner = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        jobs = [_layer_job(design=d) for d in ("SIGMA-like", "GAMMA-like")]
        reference = BatchRunner(parallel=False, cache=None).run(jobs)
        seen: list[tuple[int, int]] = []
        calling_thread = threading.get_ident()
        threads: set[int] = set()

        def observe(done: int, total: int) -> None:
            threads.add(threading.get_ident())
            seen.append((done, total))

        future = runner.submit(jobs, on_result=observe)
        results = future.result(timeout=300)
        assert results == reference
        assert seen[-1] == (2, 2)
        assert calling_thread not in threads  # progress came off-thread
        assert runner.stats.submitted == 2 and runner.stats.executed == 2
        # A second submit reuses the pool and answers from the cache.
        assert runner.submit(jobs).result(timeout=300) == results
        assert runner.stats.cache_hits == 2

    def test_results_stream_into_the_cache_as_they_land(self, tmp_path, monkeypatch):
        """Each finished job is on disk before the next one executes."""
        from repro.runtime import runner as runner_module

        cache = ResultCache(tmp_path)
        counts: dict[str, int] = {}
        original = runner_module.execute_job

        def observing(job, **kwargs):
            counts[job.design] = cache.entry_count()
            return original(job, **kwargs)

        monkeypatch.setattr(runner_module, "execute_job", observing)
        runner = BatchRunner(parallel=False, cache=cache)
        runner.run([_layer_job(design=d) for d in ("SIGMA-like", "GAMMA-like")])
        # The second job saw the first job's entry already persisted.
        first, second = counts["SIGMA-like"], counts["GAMMA-like"]
        if first > second:
            first, second = second, first
        assert first == 0
        assert second >= 1


class TestCrashResume:
    def test_completed_results_survive_a_mid_batch_crash(self, tmp_path, monkeypatch):
        from repro.runtime import runner as runner_module

        jobs = [
            _layer_job(design=design, index=index)
            for index in (0, 1)
            for design in ("SIGMA-like", "GAMMA-like", "SpArch-like")
        ]
        crash_after = 4
        executed = 0
        original = runner_module.execute_job

        def flaky(job, **kwargs):
            # Count top-level jobs only (design jobs also execute a nested
            # engine job through the shared trial runner).
            nonlocal executed
            if job.design != ENGINE_DESIGN:
                if executed >= crash_after:
                    raise RuntimeError("simulated mid-sweep crash")
                executed += 1
            return original(job, **kwargs)

        monkeypatch.setattr(runner_module, "execute_job", flaky)
        crashed = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        with pytest.raises(RuntimeError, match="mid-sweep crash"):
            crashed.run(jobs)
        # Everything finished before the crash is already on disk.
        on_disk = ResultCache(tmp_path)
        assert sum(on_disk.get(job.key()) is not MISS for job in jobs) == crash_after

        monkeypatch.setattr(runner_module, "execute_job", original)
        resumed = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        results = resumed.run(jobs)
        assert resumed.stats.cache_hits == crash_after
        assert resumed.stats.executed == len(jobs) - crash_after
        assert all(result is not None for result in results)

    def test_parallel_chunk_crash_preserves_the_completed_prefix(
        self, tmp_path, monkeypatch
    ):
        """A mid-chunk failure in a pool worker keeps earlier results."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork workers to inherit the patched executor")
        from repro.runtime import jobs as jobs_module

        # One operand group of four jobs, kept whole as one chunk (cost
        # order: Flexagon, then the fixed designs in insertion order).
        # SpArch — last in the chunk — blows up in the worker after its
        # chunk-mates finished.  Resetting the persistent pool after the
        # patch makes its workers fork with the patch in place; resetting
        # it again afterwards keeps patched workers away from later tests.
        jobs = [
            _layer_job(design=design)
            for design in ("Flexagon", "SIGMA-like", "GAMMA-like", "SpArch-like")
        ]
        original = jobs_module.execute_job

        def flaky(job, **kwargs):
            if job.design == "SpArch-like":
                raise RuntimeError("simulated worker crash")
            return original(job, **kwargs)

        monkeypatch.setattr(jobs_module, "execute_job", flaky)
        reset_shared_pool()
        runner = BatchRunner(
            parallel=True,
            max_workers=2,
            cache=ResultCache(tmp_path),
            pool_mode="persistent",
        )
        try:
            with pytest.raises(RuntimeError, match="worker crash"):
                runner.run(jobs)
        finally:
            reset_shared_pool()
        on_disk = ResultCache(tmp_path)
        # GAMMA completed before its chunk-mate SpArch crashed: its result
        # must have been streamed to disk despite the crash.
        gamma = next(job for job in jobs if job.design == "GAMMA-like")
        sparch = next(job for job in jobs if job.design == "SpArch-like")
        assert on_disk.get(gamma.key()) is not MISS
        assert on_disk.get(sparch.key()) is MISS


class TestRunnerTelemetry:
    def test_wall_clock_counters_accumulate(self, tmp_path):
        runner = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        runner.run([_layer_job(design=d) for d in ("SIGMA-like", "GAMMA-like")])
        assert runner.stats.exec_seconds > 0
        assert runner.stats.cache_scan_seconds > 0
        assert runner.stats.peak_in_flight == 1
        row = runner.stats.as_row()
        assert {"exec seconds", "cache scan seconds", "peak in flight"} <= set(row)

    def test_warm_run_spends_no_exec_time(self, tmp_path):
        cold = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        job = _layer_job()
        cold.run_one(job)
        warm = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        warm.run_one(job)
        assert warm.stats.exec_seconds == 0
        assert warm.stats.cache_scan_seconds > 0


class TestEnvironmentKnobs:
    def test_workers_default_to_every_core(self, monkeypatch):
        from repro.runtime import runner as runner_module

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 24)
        assert runner_module._env_workers() == 24

    def test_workers_env_overrides_the_core_count(self, monkeypatch):
        from repro.runtime import runner as runner_module

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert runner_module._env_workers() == 3

    def test_repr_names_the_width_and_pool(self):
        runner = BatchRunner(
            parallel=True, max_workers=5, cache=None,
            pool_mode="persistent", schedule="cost",
        )
        text = repr(runner)
        assert "x5" in text and "persistent" in text and "cost" in text
        assert "serial" in repr(BatchRunner(parallel=False, cache=None))

    def test_cost_is_the_only_schedule(self):
        BatchRunner(parallel=False, cache=None, schedule="cost")
        with pytest.raises(ValueError, match="schedule"):
            BatchRunner(parallel=False, cache=None, schedule="fifo")


class TestEngineResultSharing:
    def test_designs_reuse_cached_oracle_trials(self, tmp_path):
        """A fixed design's engine run hits the trials Flexagon cached."""
        cache = ResultCache(tmp_path)
        flexagon_first = BatchRunner(parallel=False, cache=cache)
        flexagon_first.run_one(_layer_job(design="Flexagon"))
        entries_after_flexagon = cache.entry_count()

        sigma = BatchRunner(parallel=False, cache=cache)
        result = sigma.run_one(_layer_job(design="SIGMA-like"))
        assert result.accelerator == "SIGMA-like"
        # Only the SIGMA job's own record is new; its engine run was served
        # from the cached trial, so no new engine entry appeared.
        assert cache.entry_count() == entries_after_flexagon + 1

    def test_sharing_is_bit_equivalent_to_direct_execution(self, tmp_path):
        jobs = [_layer_job(design=design) for design in DESIGN_ORDER]
        direct = BatchRunner(parallel=False, cache=None).run(jobs)

        shared = BatchRunner(parallel=False, cache=ResultCache(tmp_path)).run(jobs)
        for via_cache, via_engine in zip(shared, direct):
            assert via_cache.accelerator == via_engine.accelerator
            assert via_cache.dataflow is via_engine.dataflow
            assert via_cache.layer_name == via_engine.layer_name
            assert via_cache.cycles == via_engine.cycles
            assert via_cache.traffic == via_engine.traffic
            assert via_cache.stats == via_engine.stats
            assert via_cache.str_cache_miss_rate == via_engine.str_cache_miss_rate
            assert via_cache.dram == via_engine.dram


class TestWarmCacheEndToEnd:
    def test_second_run_executes_zero_jobs(self, tmp_path):
        cold = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        first = Session(SETTINGS, runner=cold).end_to_end()
        assert cold.stats.executed > 0
        assert cold.stats.cache_hits == 0

        warm = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        second = Session(SETTINGS, runner=warm).end_to_end()
        assert warm.stats.executed == 0
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits == warm.stats.submitted > 0
        assert _end_to_end_fingerprint(first) == _end_to_end_fingerprint(second)

    def test_parallel_writers_fill_a_shared_cache(self, tmp_path):
        cold = BatchRunner(parallel=True, max_workers=4, cache=ResultCache(tmp_path))
        Session(SETTINGS, runner=cold).layerwise()
        warm = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
        Session(SETTINGS, runner=warm).layerwise()
        assert warm.stats.executed == 0
