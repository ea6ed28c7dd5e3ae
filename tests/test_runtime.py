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

import inspect
import os
import subprocess
import sys

import pytest

from repro.api import Session
from repro.arch.config import default_config
from repro.dataflows import Dataflow
from repro.experiments import default_settings
from repro.metrics.results import LayerSimResult
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


def _entry(name, pad: int = 0) -> LayerSimResult:
    """A result record to store, told apart by ``name``; ``pad`` filler
    characters make its record that much longer."""
    return LayerSimResult(
        accelerator="test", dataflow=Dataflow.IP_M, layer_name=f"{name}" + "x" * pad
    )


#: What a writer process a test starts runs to build :func:`_entry` values.
_ENTRY_SOURCE = (
    "from repro.dataflows import Dataflow\n"
    "from repro.metrics.results import LayerSimResult\n" + inspect.getsource(_entry)
)


def _segments(directory):
    """The cache's segment files under ``directory``, sorted."""
    return sorted(directory.glob("*.seg"))


def _packs(directory):
    """The cache's pack files under ``directory``, sorted."""
    return sorted(directory.glob("*.pack"))


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
        cache.put("ab" * 32, _entry(42))
        assert cache.get("ab" * 32) == _entry(42)
        assert cache.entry_count() == 1

    def test_results_come_back_as_their_types(self, tmp_path):
        """Results are stored as JSON records and decoded to their types."""
        cache = ResultCache(tmp_path)
        results = {
            "ab" * 32: execute_job(_layer_job(design=CPU_DESIGN), trial_cache=None),
            "cd" * 32: execute_job(_layer_job(design="SIGMA-like"), trial_cache=None),
        }
        for key, result in results.items():
            cache.put(key, result)
            assert cache.get_blob(key).startswith(b'{"kind":')
        fresh = ResultCache(tmp_path)
        for key, result in results.items():
            value = fresh.get(key)
            assert type(value) is type(result) and value == result

    def test_survives_a_new_instance(self, tmp_path):
        ResultCache(tmp_path).put("cd" * 32, _entry(123))
        assert ResultCache(tmp_path).get("cd" * 32) == _entry(123)

    def test_returns_fresh_copies(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ef" * 32, _entry("mutable"))
        first = cache.get("ef" * 32)
        first.stats.multiplications += 1
        assert cache.get("ef" * 32) == _entry("mutable")

    def test_corrupt_entry_is_a_miss_and_gets_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "12" * 32
        cache.put_blob(key, b"not a record")
        assert cache.get(key) is MISS
        assert key not in cache._memory
        assert ResultCache(tmp_path).get(key) is MISS
        # The rebuilt entry supersedes the dropped record for every reader.
        cache.put(key, _entry(3))
        assert ResultCache(tmp_path).get(key) == _entry(3)

    def test_clear(self, tmp_path):
        from repro.runtime import cache as cache_module

        cache = ResultCache(tmp_path)
        cache.put("34" * 32, _entry(1))
        cache.put("56" * 32, _entry(2))
        # What a writer killed mid-record strands: a torn tail in its segment.
        (segment,) = _segments(tmp_path)
        with open(segment, "ab") as handle:
            handle.write(cache_module._MAGIC + b"partial")
        assert cache.clear() == 2
        assert cache.get("34" * 32) is MISS
        assert cache.entry_count() == 0
        assert _segments(tmp_path) == []

    def test_memory_level_is_bounded(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_module

        monkeypatch.setattr(cache_module, "MEMORY_ENTRY_LIMIT", 3)
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" * 32 for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, _entry(i))
        assert len(cache._memory) == 3
        # Evicted entries fall back to disk transparently.
        assert cache.get(keys[0]) == _entry(0)

    def test_missing_probes_without_reading(self, tmp_path):
        cache = ResultCache(tmp_path)
        present = ["ab" * 32, "cd" * 32]
        absent = ["ef" * 32, "01" * 32]
        for key in present:
            cache.put(key, _entry(1))
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
        cache.put("ab" * 32, _entry(1))
        ResultCache(tmp_path).clear()  # only the memory level holds it now
        assert cache.missing(["ab" * 32, "ef" * 32]) == ["ef" * 32]

    def test_stray_flat_entry_is_a_miss(self, tmp_path):
        """Files that are not segments are not entries: neither a flat
        ``<dir>/<key>.pkl`` nor the sharded ``<dir>/<xx>/<key>.pkl`` of the
        per-entry layout, which reads as cold and is never deleted."""
        import pickle

        key = "cd" * 32
        flat = tmp_path / f"{key}.pkl"
        flat.write_bytes(pickle.dumps({"cycles": 7.0}))
        sharded = tmp_path / key[:2] / f"{key}.pkl"
        sharded.parent.mkdir()
        sharded.write_bytes(pickle.dumps({"cycles": 7.0}))
        cache = ResultCache(tmp_path)
        assert cache.get(key) is MISS
        assert cache.get_many([key]) == {}
        assert cache.missing([key]) == [key]
        assert cache.keys() == []
        assert cache.entry_count() == 0
        assert cache.clear() == 0
        assert flat.exists() and sharded.exists()


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
                        writer.put(key, _entry(key))
                    else:
                        writer.prune(prefix=key)  # evicts by compaction
            except BaseException as error:  # surfaced by the main thread
                failures.append(error)

        thread = threading.Thread(target=mutate, daemon=True)
        thread.start()
        try:
            for _ in range(150):
                # Fresh instances: every probe is a pure disk probe, racing
                # the writer's appends and compactions rather than its memory.
                reader = ResultCache(tmp_path)
                absent = reader.missing(keys)
                found = reader.get_many(keys)
                assert set(found) <= set(keys)
                assert set(absent) <= set(keys)
                for key, value in found.items():
                    assert value == _entry(key)
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
                    f"{_ENTRY_SOURCE}"
                    "cache = ResultCache(sys.argv[1])\n"
                    "for key in sys.argv[2:]:\n"
                    "    cache.put(key, _entry(key))\n"
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
        assert all(found[key] == _entry(key) for key in keys)


class TestResultCachePrune:
    """``prune(max_size_bytes)`` evicts least-recently-written entries first."""

    @staticmethod
    def _filled_cache(tmp_path, count=4):
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" * 32 for i in range(count)]
        # Write stamps strictly increase within a process, so writing in
        # order ranks in order: keys[0] is the oldest, keys[-1] the newest.
        for key in keys:
            cache.put(key, _entry(key, pad=1000))
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
        cache.put(keys[0], _entry(keys[0], pad=1000))
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


class TestResultCacheSegments:
    """The segment store itself: compaction, handles, forks, bounded reads."""

    def test_prune_rewrites_survivors_into_one_pack(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [f"{i:02d}" * 32 for i in range(6)]
        for key in keys:
            cache.put(key, _entry(key))
        ResultCache(tmp_path).put("aa" * 32, _entry("other instance, same segment"))
        cache.prune(prefix=keys[0])
        assert _segments(tmp_path) == []
        assert len(_packs(tmp_path)) == 1
        fresh = ResultCache(tmp_path)
        assert fresh.get(keys[0]) is MISS
        assert fresh.get_many(keys[1:]) == {key: _entry(key) for key in keys[1:]}
        # Compaction keeps the write stamps, so the rank order survives it.
        entry_size = fresh.size_bytes() // fresh.entry_count()
        fresh.prune(entry_size * (fresh.entry_count() - 1))
        assert ResultCache(tmp_path).get(keys[1]) is MISS
        assert ResultCache(tmp_path).get("aa" * 32) is not MISS

    def test_a_forked_child_writes_its_own_segment(self, tmp_path):
        import multiprocessing

        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, _entry("parent"))
        (parent_segment,) = _segments(tmp_path)
        child = multiprocessing.get_context("fork").Process(
            target=ResultCache(tmp_path).put, args=("cd" * 32, _entry("child"))
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert b"cd" * 32 not in parent_segment.read_bytes()
        assert len(_segments(tmp_path)) == 2
        assert {path.name.split("-")[0] for path in _segments(tmp_path)} == {
            str(os.getpid()), str(child.pid)
        }
        assert ResultCache(tmp_path).get_many(["ab" * 32, "cd" * 32]) == {
            "ab" * 32: _entry("parent"), "cd" * 32: _entry("child")
        }

    def test_append_handles_stay_bounded(self, tmp_path):
        import shutil

        from repro.runtime import cache as cache_module

        def open_segments():
            fds = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    fds.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    continue
            return [target for target in fds if ".seg" in target]

        limit = cache_module._APPEND_HANDLE_LIMIT
        for index in range(limit + 4):
            ResultCache(tmp_path / f"dir-{index}").put("ab" * 32, _entry(index))
        assert len(open_segments()) <= limit
        # Deleted directories do not keep their segments' space pinned once
        # the process writes anywhere else.
        for index in range(limit + 4):
            shutil.rmtree(tmp_path / f"dir-{index}")
        ResultCache(tmp_path / "after").put("ab" * 32, _entry("after"))
        assert [target for target in open_segments() if "(deleted)" in target] == []

    def test_concurrent_writer_threads_never_interleave_records(self, tmp_path):
        """More writer threads than cores share one process segment under a
        tiny switch interval: every record must read back whole."""
        import threading

        keys = [f"{i:04d}" * 16 for i in range(400)]
        shards = [keys[n::8] for n in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda part: [ResultCache(tmp_path).put(k, _entry(k)) for k in part],
                    args=(part,),
                )
                for part in shards
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old_interval)
        assert len(_segments(tmp_path)) == 1
        assert ResultCache(tmp_path).get_many(keys) == {key: _entry(key) for key in keys}

    def test_refresh_reads_headers_in_bounded_pieces(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_module

        writer = ResultCache(tmp_path)
        keys = [f"{i:04d}" * 16 for i in range(200)]
        for key in keys:
            writer.put_blob(key, os.urandom(3000))
        writer.put_blob("ff" * 32, os.urandom(4 * cache_module._PIECE))
        (segment,) = _segments(tmp_path)
        reads: list[int] = []
        real_pread = os.pread

        def counting_pread(fd, size, offset):
            reads.append(size)
            return real_pread(fd, size, offset)

        monkeypatch.setattr(cache_module.os, "pread", counting_pread)
        assert ResultCache(tmp_path).entry_count() == len(keys) + 1
        assert max(reads) <= cache_module._PIECE
        # The big blob is skipped, not read.
        assert sum(reads) < segment.stat().st_size


class TestResultCacheMerge:
    """Segments from many writers merge into packs, so a long-lived cache
    directory stays a bounded number of files that readers never index
    record by record."""

    @staticmethod
    def _one_segment_per_put(monkeypatch):
        from repro.runtime import cache as cache_module

        # Every append passes the size limit, so each put leaves an idle
        # segment behind, as a finished run's processes do.
        monkeypatch.setattr(cache_module, "_SEGMENT_BYTES", 1)
        return cache_module

    def test_idle_segments_merge_into_packs(self, tmp_path, monkeypatch):
        cache_module = self._one_segment_per_put(monkeypatch)
        keys = [f"{i:02d}" * 32 for i in range(3 * cache_module._MERGE_AT)]
        cache = ResultCache(tmp_path)
        for key in keys:
            cache.put(key, _entry(key))
            files = len(_segments(tmp_path)) + len(_packs(tmp_path))
            assert files <= cache_module._MERGE_AT
        assert _packs(tmp_path)
        fresh = ResultCache(tmp_path)
        assert fresh.get_many(keys) == {key: _entry(key) for key in keys}
        assert fresh.entry_count() == len(keys)
        assert fresh.missing(keys + ["ff" * 32]) == ["ff" * 32]

    def test_concurrent_writer_processes_merging_lose_nothing(self, tmp_path, monkeypatch):
        """More writer processes than cores, each leaving a segment behind
        on every put, so merges race each other and the appends: every
        entry must read back whole."""
        import multiprocessing

        self._one_segment_per_put(monkeypatch)
        shards = [[f"{n}{i:03d}".ljust(64, "0") for i in range(60)] for n in range(6)]

        def write(part):
            cache = ResultCache(tmp_path)
            for key in part:
                cache.put(key, _entry(key))

        context = multiprocessing.get_context("fork")
        writers = [context.Process(target=write, args=(part,)) for part in shards]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0] * len(writers)
        keys = [key for part in shards for key in part]
        assert ResultCache(tmp_path).get_many(keys) == {key: _entry(key) for key in keys}

    def test_a_live_writers_segment_is_not_merged(self, tmp_path, monkeypatch):
        import fcntl
        import hashlib

        from repro.runtime.cache import _record

        cache_module = self._one_segment_per_put(monkeypatch)
        live = tmp_path / "1-live.seg"
        key = b"ee" * 32
        live.write_bytes(_record(key, b"live", 1, hashlib.sha256(key + b"live").digest()))
        with open(live, "rb") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            cache = ResultCache(tmp_path)
            for i in range(2 * cache_module._MERGE_AT):
                cache.put(f"{i:02d}" * 32, _entry(i))
            assert live.exists()
        assert ResultCache(tmp_path).get_blob(key.decode()) == b"live"

    def test_rewrites_keep_the_newest_record_across_a_merge(self, tmp_path, monkeypatch):
        cache_module = self._one_segment_per_put(monkeypatch)
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, _entry("old"))
        for i in range(cache_module._MERGE_AT):
            cache.put(f"{i:02d}" * 32, _entry(i))
        assert _packs(tmp_path)
        cache.put("ab" * 32, _entry("new"))  # in a segment, newer than the pack's
        assert ResultCache(tmp_path).get("ab" * 32) == _entry("new")
        for i in range(cache_module._MERGE_AT):
            cache.put(f"{i:02d}" * 32, _entry(i))
        assert ResultCache(tmp_path).get("ab" * 32) == _entry("new")

    def test_a_probe_reads_the_pack_table_not_its_records(self, tmp_path, monkeypatch):
        cache_module = self._one_segment_per_put(monkeypatch)
        cache = ResultCache(tmp_path)
        for i in range(cache_module._MERGE_AT):
            cache.put_blob(f"{i:02d}" * 32, os.urandom(20_000))
        cache.put_blob("ee" * 32, b"small")  # opens a segment: the merge
        (pack,) = _packs(tmp_path)
        reads: list[int] = []
        real_pread = os.pread

        def counting_pread(fd, size, offset):
            reads.append(size)
            return real_pread(fd, size, offset)

        monkeypatch.setattr(cache_module.os, "pread", counting_pread)
        probe = ResultCache(tmp_path)
        assert probe.missing(["ff" * 32, "00" * 32]) == ["ff" * 32]
        # Footer and table: 33 bytes per record, not the 20 kB blobs.
        assert sum(reads) < 40 * (cache_module._MERGE_AT + 2) + 1024
        assert sum(reads) < pack.stat().st_size // 100

    def test_a_directory_of_the_pickle_layout_reads_as_empty(self, tmp_path, monkeypatch):
        """Segments and packs of the layout that stored pickles (magics
        ``RCS1``/``RCP1``) are no entries: nothing of them is decoded, and
        the next merge reclaims their files."""
        import pickle

        cache_module = self._one_segment_per_put(monkeypatch)
        keys = [f"{i:02d}" * 32 for i in range(cache_module._MERGE_AT + 2)]
        with monkeypatch.context() as old_layout:
            old_layout.setattr(cache_module, "_MAGIC", b"RCS1")
            old_layout.setattr(cache_module, "_PACK_MAGIC", b"RCP1")
            old = ResultCache(tmp_path)
            for key in keys:
                old.put_blob(key, pickle.dumps({"cycles": 7.0}))
            assert _packs(tmp_path) and _segments(tmp_path)
            assert ResultCache(tmp_path).entry_count() == len(keys)
        cache = ResultCache(tmp_path)
        assert cache.get(keys[0]) is cache_module.MISS
        assert cache.get_many(keys) == {}
        assert cache.missing(keys) == keys
        assert cache.keys() == [] and cache.entry_count() == 0
        for i in range(cache_module._MERGE_AT):
            cache.put(f"{i:02d}" * 32, _entry(i))
        assert ResultCache(tmp_path).entry_count() == cache_module._MERGE_AT
        stale = [path for path in _segments(tmp_path) + _packs(tmp_path)
                 if path.read_bytes()[:4] == b"RCS1" or path.read_bytes()[-16:-12] == b"RCP1"]
        assert not stale

    def test_a_segment_of_the_pickle_layout_is_skipped_not_scanned(
        self, tmp_path, monkeypatch
    ):
        """A fresh reader reads the first four bytes of an ``RCS1`` segment
        and no more of it, however large it is."""
        import pickle

        cache_module = self._one_segment_per_put(monkeypatch)
        keys = [f"{i:02d}" * 32 for i in range(cache_module._MERGE_AT - 3)]
        with monkeypatch.context() as old_layout:
            old_layout.setattr(cache_module, "_MAGIC", b"RCS1")
            old = ResultCache(tmp_path)
            for key in keys:
                old.put_blob(key, pickle.dumps({"cycles": 7.0, "pad": "x" * 100_000}))
        segments = _segments(tmp_path)
        assert len(segments) == len(keys) and not _packs(tmp_path)
        reads: list[int] = []
        real_pread = os.pread

        def counting_pread(fd, size, offset):
            data = real_pread(fd, size, offset)
            reads.append(len(data))
            return data

        monkeypatch.setattr(cache_module.os, "pread", counting_pread)
        assert ResultCache(tmp_path).missing(keys) == keys
        assert sum(reads) <= 4 * len(segments)

    def test_a_torn_pack_is_ignored_then_removed(self, tmp_path, monkeypatch):
        cache_module = self._one_segment_per_put(monkeypatch)
        torn = tmp_path / "1-torn.pack"
        torn.write_bytes(b"RCS1 what a merge that died leaves")
        cache = ResultCache(tmp_path)
        assert cache.entry_count() == 0
        for i in range(cache_module._MERGE_AT):
            cache.put(f"{i:02d}" * 32, _entry(i))
        assert not torn.exists()
        assert ResultCache(tmp_path).entry_count() == cache_module._MERGE_AT


class TestResultCachePruneRewrites:
    """``prune`` rewrites only what holds an evicted record, and frees
    space even when nothing can be copied."""

    @staticmethod
    def _two_segments(tmp_path):
        import multiprocessing

        first = [f"{i:02d}" * 32 for i in range(4)]
        second = [f"{i:02d}" * 32 for i in range(4, 8)]
        cache = ResultCache(tmp_path)
        for key in first:
            cache.put(key, _entry(key, pad=1000))
        # A second process's segment.
        child = multiprocessing.get_context("fork").Process(
            target=lambda: [ResultCache(tmp_path).put(key, _entry(key, pad=1000))
                            for key in second]
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        return cache, first, second

    def test_only_files_holding_an_evicted_record_are_rewritten(self, tmp_path):
        cache, first, second = self._two_segments(tmp_path)
        before = {path.name: path.stat().st_ino for path in _segments(tmp_path)}
        cache.prune(prefix=second[0])
        after = {path.name: path.stat().st_ino for path in _segments(tmp_path)}
        assert len(after) == 1 and after.items() <= before.items()
        fresh = ResultCache(tmp_path)
        assert fresh.get(second[0]) is MISS
        assert sorted(fresh.get_many(first + second[1:])) == sorted(first + second[1:])

    def test_an_evicted_key_does_not_resurface_from_an_older_record(self, tmp_path):
        cache, first, second = self._two_segments(tmp_path)
        cache.put(second[0], _entry(f"{second[0]}-newer"))
        cache.prune(prefix=second[0])
        assert ResultCache(tmp_path).get(second[0]) is MISS
        assert ResultCache(tmp_path).entry_count() == len(first + second) - 1

    def test_cli_prune_frees_space_on_a_full_disk(self, tmp_path, monkeypatch, capsys):
        import errno

        from repro.cli import main

        cache, first, second = self._two_segments(tmp_path)
        # Evicting the three oldest leaves one survivor in the first segment,
        # and copying it out fails: the segment goes anyway, survivor and all.
        bound = cache.size_bytes() * 5 // 8
        TestResultCacheFaults._deny_opens(monkeypatch, tmp_path, errno.ENOSPC, reads=False)
        rc = main(["cache", "--cache-dir", str(tmp_path), "prune", "--max-size-mb", str(bound / 1e6)])
        assert rc == 0
        assert "pruned 4 entries" in capsys.readouterr().out
        monkeypatch.undo()
        fresh = ResultCache(tmp_path)
        assert fresh.size_bytes() <= bound
        assert fresh.get_many(first + second) == {
            key: _entry(key, pad=1000) for key in second
        }


class TestResultCacheFaults:
    """Every fault ends in correct bytes or a recompute: never an exception,
    a hang or a wrong value."""

    KEYS = ("a1" * 32, "b1" * 32, "c1" * 32)

    def _three_records(self, tmp_path):
        """Three records with recognisable blobs in one segment."""
        cache = ResultCache(tmp_path)
        for key, fill in zip(self.KEYS, b"ABC"):
            cache.put_blob(key, bytes([fill]) * 500)
        (segment,) = _segments(tmp_path)
        return cache, segment

    @staticmethod
    def _flip(segment, offset):
        data = bytearray(segment.read_bytes())
        data[offset] ^= 0x01
        segment.write_bytes(bytes(data))

    def _assert_only_b_is_lost(self, tmp_path, cache):
        fresh = ResultCache(tmp_path)
        assert fresh.get_blob(self.KEYS[0]) == b"A" * 500
        assert fresh.get_blob(self.KEYS[1]) is None
        assert fresh.get_blob(self.KEYS[2]) == b"C" * 500
        # The recompute's re-put reads back, even though it lands in the
        # damaged segment.
        cache.put_blob(self.KEYS[1], b"B" * 500)
        assert ResultCache(tmp_path).get_blob(self.KEYS[1]) == b"B" * 500

    def test_flipped_blob_byte_is_a_miss(self, tmp_path):
        cache, segment = self._three_records(tmp_path)
        self._flip(segment, segment.read_bytes().index(b"B" * 500) + 250)
        fresh = ResultCache(tmp_path)
        assert fresh.get(self.KEYS[1]) is MISS
        assert fresh.get_many(list(self.KEYS)) == {}  # b"A"*500 is no record
        self._assert_only_b_is_lost(tmp_path, cache)

    def test_flipped_key_byte_never_serves_another_key(self, tmp_path):
        cache, segment = self._three_records(tmp_path)
        # "b1..." -> "b0...": the damaged record now names a plausible key.
        self._flip(segment, segment.read_bytes().index(self.KEYS[1].encode()) + 1)
        other = "b0" + self.KEYS[1][2:]
        fresh = ResultCache(tmp_path)
        assert fresh.get_blob(other) is None
        assert fresh.missing([other]) == [other]
        self._assert_only_b_is_lost(tmp_path, cache)

    @pytest.mark.parametrize("field_offset", [8, 10, 13])  # key len, blob len low/high bytes
    def test_flipped_length_byte_is_a_miss(self, tmp_path, field_offset):
        from repro.runtime import cache as cache_module

        cache, segment = self._three_records(tmp_path)
        key_at = segment.read_bytes().index(self.KEYS[1].encode())
        self._flip(segment, key_at - cache_module._HEADER_SIZE + field_offset)
        self._assert_only_b_is_lost(tmp_path, cache)

    def test_writer_killed_mid_record(self, tmp_path):
        """A real writer SIGKILLed inside its append: complete records read
        back, the torn one is a miss, and a re-put of it reads back."""
        import signal

        keys = [f"{i:02d}" * 32 for i in range(8)]
        script = (
            "import os, signal, sys\n"
            "from repro.runtime import ResultCache\n"
            "from repro.runtime import cache as cache_module\n"
            f"{_ENTRY_SOURCE}"
            "cache = ResultCache(sys.argv[1])\n"
            "for key in sys.argv[2:-1]:\n"
            "    cache.put(key, _entry(key))\n"
            "real_write = os.write\n"
            "def torn_write(fd, data):\n"
            "    real_write(fd, data[: len(data) // 2])\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "cache_module.os.write = torn_write\n"
            "cache.put(sys.argv[-1], _entry(sys.argv[-1]))\n"
        )
        writer = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *keys],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        assert writer.returncode == -signal.SIGKILL
        torn = keys[-1]
        fresh = ResultCache(tmp_path)
        assert fresh.get_many(keys) == {key: _entry(key) for key in keys[:-1]}
        assert fresh.get(torn) is MISS
        assert fresh.missing(keys) == [torn]
        ResultCache(tmp_path).put(torn, _entry(torn))
        assert ResultCache(tmp_path).get(torn) == _entry(torn)

    def test_put_after_a_clear_elsewhere_lands(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, _entry(1))
        ResultCache(tmp_path).clear()
        cache.put("cd" * 32, _entry(2))
        assert ResultCache(tmp_path).get("cd" * 32) == _entry(2)
        # Another process's clear unlinks the segment under an open handle.
        for segment in _segments(tmp_path):
            segment.unlink()
        cache.put("ef" * 32, _entry(3))
        assert ResultCache(tmp_path).get("ef" * 32) == _entry(3)

    @staticmethod
    def _deny_opens(monkeypatch, under, errno_code, *, reads=True):
        """Fail every file creation under ``under``, and every read open
        too when ``reads`` is set, with ``errno_code``."""
        import builtins

        from repro.runtime import cache as cache_module

        def deny(path):
            if str(path).startswith(str(under)):
                raise OSError(errno_code, os.strerror(errno_code), str(path))

        real_os_open, real_open = os.open, builtins.open

        def denying_os_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                deny(path)
            return real_os_open(path, flags, *args, **kwargs)

        def denying_open(path, *args, **kwargs):
            if reads:
                deny(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", denying_os_open)
        monkeypatch.setattr(cache_module, "open", denying_open, raising=False)

    def test_eacces_on_segment_open(self, tmp_path, monkeypatch, capsys):
        import errno

        ResultCache(tmp_path / "readable").put("ab" * 32, _entry("kept"))
        self._deny_opens(monkeypatch, tmp_path, errno.EACCES)
        writer = ResultCache(tmp_path / "denied")
        writer.put("cd" * 32, _entry(1))
        writer.put("ef" * 32, _entry(2))
        assert writer.get("cd" * 32) == _entry(1)  # the memory level still answers
        assert writer.write_failures == 2
        assert capsys.readouterr().err.count("[repro.cache]") == 1
        reader = ResultCache(tmp_path / "readable")
        assert reader.get("ab" * 32) is MISS
        assert reader.get_many(["ab" * 32]) == {}
        monkeypatch.undo()
        assert ResultCache(tmp_path / "readable").get("ab" * 32) == _entry("kept")

    def test_enospc_puts_do_not_fail_a_run(self, tmp_path, monkeypatch, capsys):
        import errno

        jobs = [_layer_job("SIGMA-like"), _layer_job("Flexagon")]
        expected = BatchRunner(parallel=False, cache=None).run(jobs)
        self._deny_opens(monkeypatch, tmp_path, errno.ENOSPC, reads=False)
        cache = ResultCache(tmp_path / "full")
        runner = BatchRunner(parallel=False, cache=cache)
        assert runner.run(jobs) == expected
        assert runner.stats.executed == len(jobs)
        assert cache.write_failures >= len(jobs)
        assert capsys.readouterr().err.count("[repro.cache]") == 1


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
        direct = execute_job(job, trial_cache=None)
        via_runner = BatchRunner(parallel=False, cache=None).run_one(job)
        assert via_runner.total_cycles == direct.total_cycles

    def test_engine_job_runs_forced_dataflow(self):
        job = _layer_job(design=ENGINE_DESIGN, dataflow=Dataflow.IP_M)
        result = execute_job(job, trial_cache=None)
        assert result.dataflow is Dataflow.IP_M
        assert result.total_cycles > 0

    def test_cacheless_runner_disables_nested_trial_cache(self):
        """A ``cache=None`` sweep must not consume persisted mapper trials."""
        from repro.runtime.jobs import _nested_runner

        nested = _nested_runner(None)
        assert nested.cache is None and not nested.parallel

    def test_custom_cache_dir_reaches_nested_trials(self, tmp_path):
        """Nested engine runs land in the sweep's own cache, not the env
        default: a directory gets one serial runner per process, a live
        cache is used as it is."""
        from repro.runtime.jobs import _nested_runner

        by_directory = _nested_runner(str(tmp_path))
        assert str(by_directory.cache.directory) == str(tmp_path)
        assert not by_directory.parallel
        assert _nested_runner(tmp_path) is by_directory
        live = ResultCache(tmp_path)
        assert _nested_runner(live).cache is live

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

    @pytest.mark.parametrize(
        ("pool_mode", "max_workers"),
        [
            pytest.param("persistent", 2, id="persistent"),
            pytest.param("remote", 2, id="remote"),
            pytest.param("persistent", 1, id="persistent-1-worker"),
            pytest.param("remote", 1, id="remote-1-worker"),
        ],
    )
    def test_both_pool_modes_match_serial_results(
        self, tmp_path, pool_mode, max_workers
    ):
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
            max_workers=max_workers,
            cache=ResultCache(tmp_path / pool_mode),
            pool_mode=pool_mode,
        )
        workers = contextlib.nullcontext()
        queue = None
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
        if queue is not None:
            # Remote mode dispatches at any width: the fleet ran the misses.
            assert queue.snapshot()["completed_items"] > 0


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
