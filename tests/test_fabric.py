"""Tests of the distributed execution fabric (``repro.fabric``).

Covers the fabric's four contracts:

* **Protocol** — the lease queue's claim/heartbeat/complete lifecycle:
  FIFO claims, front-of-queue requeue on lease expiry, heartbeat
  extension, first-valid-completion-wins, bounded lease budgets, and the
  verification gate (recomputed digests, result-record decoding, outcome
  counts, content-key-only extras) that keeps a corrupt upload out of the
  cache.
* **Inert payloads** — pickle bytes that would call a function when
  unpickled are refused on every inbound path without calling it.
* **Bit-equivalence** — a sweep through ``REPRO_POOL=remote`` plus worker
  loops produces byte-identical ``SweepResult`` JSON and an identical
  cache key inventory to the local pool, on fixed and randomized grids.
* **Fault convergence** — chaos workers (``die_after``/``stall``/
  ``corrupt``, the :mod:`fabric_chaos` harness) leave no orphaned lease
  and never change the final bytes.
* **HTTP surfaces** — the standalone coordinator listener, the routes
  mounted on the serve front-end, the ``python -m repro worker``
  subprocess, and ``cache pull`` anti-entropy replication.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

from fabric_chaos import (
    ChaosClient,
    start_worker,
    start_worker_after,
    wait_until,
    worker_fleet,
)
from repro import resilience
from repro.accelerators.cpu import CpuRunResult
from repro.api import Session, SweepSpec
from repro.arch.config import default_config
from repro.dataflows import Dataflow
from repro.dataflows.stats import DataflowStats
from repro.experiments.settings import default_settings
from repro.fabric import (
    Chaos,
    Coordinator,
    FabricError,
    RemoteExecutor,
    RemoteWorkerError,
    WorkQueue,
    pull_cache,
    reset_shared_fabric,
    set_shared_coordinator,
    wire,
)
from repro.fabric.worker import DirectClient, RecordingCache
from repro.httpd import CONTENT_DIGEST_HEADER
from repro.runtime import BatchRunner, ResultCache, SimJob, records, reset_shared_pool
from repro.runtime.jobs import CPU_DESIGN, ENGINE_DESIGN, execute_chunk
from repro.serve import BackgroundServer
from repro.sparse import Layout, random_sparse
from repro.workloads.representative import REPRESENTATIVE_LAYERS

#: Same micro budgets as tests/test_serve.py, so every grid stays tiny.
MICRO = default_settings(max_dense_macs=5e4, max_layers_per_model=1)

#: The chaos-scenario workload: 8 jobs the cost planner packs into two
#: chunks at ``max_workers=4`` — one chunk to complete honestly, one to
#: lose to the injected fault and recover elsewhere.
CHAOS_SPEC = SweepSpec(layers=("R6", "A2"), scale=0.05)


@pytest.fixture(autouse=True)
def _fabric_hygiene():
    """Every test gets (and leaves behind) a fresh shared coordinator."""
    reset_shared_fabric()
    yield
    reset_shared_fabric()


def _job(design: str = "SIGMA-like", index: int = 0, **overrides) -> SimJob:
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


def _result(value: int) -> CpuRunResult:
    """A small, distinct result record to upload or store."""
    return CpuRunResult(
        cycles=float(value), seconds=value / 3e9, stats=DataflowStats(multiplications=value)
    )


def _chunk(count: int = 1) -> list[tuple[str, SimJob]]:
    jobs = [_job(index=index) for index in range(count)]
    return [(job.key(), job) for job in jobs]


def _completion(item: dict, outcomes, error: str | None = None, extras=()) -> dict:
    """A well-formed upload record for one claimed item."""
    return {
        "item_id": item["item_id"],
        "outcomes": [wire.encode_blob(records.encode(value)) for value in outcomes],
        "extras": [{"key": key, **wire.encode_blob(blob)} for key, blob in extras],
        "error": error,
    }


def _content_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWire:
    def test_blob_roundtrip(self):
        record = wire.encode_blob(b"payload bytes")
        assert record["sha256"] == wire.digest(b"payload bytes")
        assert wire.decode_blob(record) == b"payload bytes"

    def test_tampered_blob_is_rejected(self):
        record = wire.encode_blob(b"payload bytes")
        record["sha256"] = wire.digest(b"something else")
        with pytest.raises(wire.IntegrityError, match="sha256"):
            wire.decode_blob(record)

    def test_malformed_base64_is_rejected(self):
        with pytest.raises(wire.IntegrityError):
            wire.decode_blob({"data": "!!not base64!!", "sha256": "0" * 64})

    def test_content_key_gate(self):
        assert wire.is_content_key(_content_key("x"))
        assert not wire.is_content_key(_content_key("x").upper())
        assert not wire.is_content_key("ab" * 16)  # too short
        assert not wire.is_content_key("../" + "a" * 61)  # traversal alphabet

    def test_jobs_roundtrip_preserves_keys(self):
        a = random_sparse(24, 32, 0.3, seed=1)
        b = random_sparse(32, 20, 0.3, seed=2).with_layout(Layout.CSC)
        jobs = [
            _job(index=0),
            _job(index=1, design="GAMMA-like"),
            _job(
                design=ENGINE_DESIGN,
                config=default_config(num_multipliers=32),
                dataflow=Dataflow.GUST_N,
            ),
            _job(design=CPU_DESIGN, index=2),
            SimJob(design="SpArch-like", config=default_config(), a=a, b=b, layer_name="ab"),
        ]
        decoded = wire.decode_jobs(wire.encode_jobs(jobs))
        assert [job.key() for job in decoded] == [job.key() for job in jobs]
        assert decoded[2].dataflow is Dataflow.GUST_N
        assert (decoded[4].a, decoded[4].b) == (a, b)

    def test_a_chunk_carries_each_operand_once(self):
        """Jobs over one operand pair share one decoded operand object (a
        square workload's ``b`` is its ``a``), and the payload carries its
        structure once, however many jobs name it."""
        a = random_sparse(400, 400, 0.25, seed=5)

        def chunk(count: int) -> list[SimJob]:
            return [
                SimJob(design="SIGMA-like", config=default_config(), a=a, b=a, layer_name=f"j{n}")
                for n in range(count)
            ]

        one, sixteen = (wire.decode_blob(wire.encode_jobs(chunk(n))) for n in (1, 16))
        assert one.count(b'"pointers"') == sixteen.count(b'"pointers"') == 1
        assert len(sixteen) < 1.2 * len(one)
        decoded = wire.decode_jobs(wire.encode_jobs(chunk(16)))
        assert decoded[0].a == a
        assert all(job.a is decoded[0].a and job.b is decoded[0].a for job in decoded)

    def test_a_result_record_must_be_canonical(self):
        """An inbound result is byte for byte what its decoded value writes
        back: a number spelled as a string or as an equal number of another
        type, a field the type lacks, or a record of no result kind is
        refused."""
        good = _result(1).to_record()
        assert wire.decode_result(records.encode(_result(1))) == _result(1)
        layer = execute_chunk([_job(design="Flexagon")], trial_cache=None)[0][0].to_record()
        layer["str_cache_accesses"] = 1
        assert wire.decode_result(records.dumps({"kind": "layer_result", "record": layer}))
        foreign = [
            records.dumps({"kind": "layer_result", "record": {**layer, "str_cache_accesses": True}}),
            records.dumps({"kind": None, "record": good}),
            records.encode(_result(1)) + b" ",
            b"[]",
            b"{}",
            b"\xff",
        ]
        for record in (
            {**good, "cycles": "1.0"},
            {**good, "cycles": 1},  # an int for a float
            {**good, "stats": {**good["stats"], "multiplications": "1"}},
            {**good, "stats": {**good["stats"], "multiplications": 1.0}},  # a float for an int
            {**good, "stats": {**good["stats"], "multiplications": True}},
            {**good, "extra": 1},
        ):
            foreign.append(records.dumps({"kind": "cpu_result", "record": record}))
        for blob in foreign:
            with pytest.raises(wire.IntegrityError):
                wire.decode_result(blob)

    def test_decode_jobs_rejects_foreign_payloads(self):
        operands = (random_sparse(8, 8, 0.4, seed=3), random_sparse(8, 8, 0.4, seed=4))
        job = SimJob(design="Flexagon", config=default_config(), a=operands[0], b=operands[1])
        good = json.loads(wire.decode_blob(wire.encode_jobs([job])))
        foreign = [["not", "jobs"], {"design": "Flexagon"}, {**good, "operands": good["operands"][:1]}]
        for index in (True, -1, 1.0):  # b named by no place of the table
            foreign.append({**good, "jobs": [{**good["jobs"][0], "b": index}]})
        for field, bad in [("indices", 0.5), ("indices", "1"), ("indices", [1]), ("shape", 8.0)]:
            chunk = json.loads(wire.decode_blob(wire.encode_jobs([job])))
            chunk["operands"][0][field][0] = bad  # a number that is no integer
            foreign.append(chunk)
        for payload in foreign:
            with pytest.raises(wire.IntegrityError):
                wire.decode_jobs(wire.encode_blob(records.dumps(payload)))


# ----------------------------------------------------------------------
# The lease queue protocol
# ----------------------------------------------------------------------
class TestWorkQueue:
    def test_claims_are_fifo(self):
        queue = WorkQueue(lease_seconds=30)
        queue.submit_chunk(_chunk(1))
        queue.submit_chunk(_chunk(2))
        first, outstanding = queue.claim("w1")
        second, _ = queue.claim("w1")
        assert outstanding == 2
        assert [item["item_id"] for item in first + second] == ["w00000001", "w00000002"]
        assert first[0]["attempt"] == 1

    def test_empty_chunk_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            WorkQueue(lease_seconds=30).submit_chunk([])

    def test_claim_on_an_empty_queue_grants_nothing(self):
        items, outstanding = WorkQueue(lease_seconds=30).claim("w1", max_items=4)
        assert items == [] and outstanding == 0

    def test_expired_lease_requeues_at_the_front(self):
        queue = WorkQueue(lease_seconds=0.05, max_attempts=5)
        queue.submit_chunk(_chunk(1))
        queue.submit_chunk(_chunk(2))
        (claimed,), _ = queue.claim("w1")
        time.sleep(0.12)
        rescued, _ = queue.claim("w2", max_items=2)
        # The expired item comes back first — ahead of never-claimed work.
        assert [item["item_id"] for item in rescued] == [
            claimed["item_id"],
            "w00000002",
        ]
        assert rescued[0]["attempt"] == 2
        assert queue.snapshot()["requeued_leases"] == 1

    def test_heartbeat_extends_a_live_lease(self):
        queue = WorkQueue(lease_seconds=0.2, max_attempts=5)
        queue.submit_chunk(_chunk(1))
        queue.submit_chunk(_chunk(2))
        (claimed,), _ = queue.claim("w1")
        for _ in range(4):  # hold well past the original deadline
            time.sleep(0.08)
            outcome = queue.heartbeat("w1", [claimed["item_id"]])
            assert outcome["extended"] == [claimed["item_id"]]
        others, _ = queue.claim("w2", max_items=2)
        assert [item["item_id"] for item in others] == ["w00000002"]
        assert queue.snapshot()["requeued_leases"] == 0

    def test_heartbeat_reports_lost_and_unknown_leases(self):
        queue = WorkQueue(lease_seconds=30)
        queue.submit_chunk(_chunk(1))
        (claimed,), _ = queue.claim("w1")
        outcome = queue.heartbeat("somebody-else", [claimed["item_id"], "w99999999"])
        assert outcome["extended"] == []
        assert outcome["lost"] == [claimed["item_id"], "w99999999"]

    def test_exhausted_lease_budget_fails_the_future(self):
        queue = WorkQueue(lease_seconds=0.02, max_attempts=2)
        future = queue.submit_chunk(_chunk(1))
        for attempt in (1, 2):
            (claimed,), _ = queue.claim("w1")
            assert claimed["attempt"] == attempt
            time.sleep(0.05)
        items, _ = queue.claim("w1")  # the sweep that burns the last lease
        assert items == []
        assert future.done()
        outcomes, error = future.result()
        assert outcomes == []
        assert isinstance(error, RemoteWorkerError)
        assert "gave up" in str(error)
        snapshot = queue.snapshot()
        assert snapshot["failed"] == 1 and snapshot["outstanding"] == 0
        # A straggler's otherwise-valid completion is answered as stale.
        outcome = queue.complete("w1", _completion(claimed, [_result(1)]))
        assert outcome == {"status": "stale", "item_id": claimed["item_id"]}

    def test_valid_completion_resolves_the_future(self, tmp_path):
        queue = WorkQueue(lease_seconds=30)
        extra_key = _content_key("nested trial")
        extra_blob = records.encode(_result(7))
        future = queue.submit_chunk(_chunk(2), extras_dir=str(tmp_path))
        (claimed,), _ = queue.claim("w1")
        outcome = queue.complete(
            "w1",
            _completion(claimed, [_result(0), _result(1)], extras=[(extra_key, extra_blob)]),
        )
        assert outcome == {"status": "accepted", "item_id": claimed["item_id"]}
        assert future.result() == ([_result(0), _result(1)], None)
        # Extras landed byte-for-byte in the batch's cache directory.
        assert ResultCache(tmp_path).get_blob(extra_key) == extra_blob
        assert queue.snapshot()["done"] == 1

    def test_error_completion_accepts_a_prefix(self):
        queue = WorkQueue(lease_seconds=30)
        future = queue.submit_chunk(_chunk(2))
        (claimed,), _ = queue.claim("w1")
        queue.complete("w1", _completion(claimed, [_result(0)], error="RuntimeError: boom"))
        outcomes, error = future.result()
        assert outcomes == [_result(0)]
        assert isinstance(error, RemoteWorkerError) and "boom" in str(error)

    def test_wrong_outcome_count_is_rejected_and_requeued(self):
        queue = WorkQueue(lease_seconds=30)
        future = queue.submit_chunk(_chunk(2))
        (claimed,), _ = queue.claim("w1")
        with pytest.raises(FabricError) as excinfo:
            queue.complete("w1", _completion(claimed, [_result(1)]))
        assert excinfo.value.status == 400
        snapshot = queue.snapshot()
        assert snapshot["rejected_uploads"] == 1
        assert snapshot["pending"] == 1  # back on the queue, not poisoned
        assert not future.done()

    def test_digest_mismatch_is_rejected(self):
        queue = WorkQueue(lease_seconds=30)
        queue.submit_chunk(_chunk(1))
        (claimed,), _ = queue.claim("w1")
        record = _completion(claimed, [_result(1)])
        record["outcomes"][0]["sha256"] = wire.digest(b"someone else's bytes")
        with pytest.raises(FabricError, match="corrupt upload"):
            queue.complete("w1", record)
        assert queue.snapshot()["rejected_uploads"] == 1

    def test_extras_never_overwrite_existing_entries(self, tmp_path):
        """Extras keys are worker-declared, so they may only fill absent
        cache entries — a completion naming an already-present key must
        leave the original bytes untouched."""
        existing_key = _content_key("already present")
        original = records.encode(_result(1))
        ResultCache(tmp_path).put_blob(existing_key, original)
        fresh_key = _content_key("genuinely new")
        fresh_blob = records.encode(_result(2))
        imposter = records.encode(_result(3))
        queue = WorkQueue(lease_seconds=30)
        queue.submit_chunk(_chunk(1), extras_dir=str(tmp_path))
        (claimed,), _ = queue.claim("w1")
        queue.complete(
            "w1",
            _completion(
                claimed,
                [_result(0)],
                extras=[(existing_key, imposter), (fresh_key, fresh_blob)],
            ),
        )
        cache = ResultCache(tmp_path)
        assert cache.get_blob(existing_key) == original
        assert cache.get_blob(fresh_key) == fresh_blob

    def test_extras_must_carry_content_keys(self, tmp_path):
        queue = WorkQueue(lease_seconds=30)
        queue.submit_chunk(_chunk(1), extras_dir=str(tmp_path))
        (claimed,), _ = queue.claim("w1")
        blob = records.encode(_result(1))
        with pytest.raises(FabricError, match="no valid key"):
            queue.complete(
                "w1", _completion(claimed, [_result(0)], extras=[("../escape", blob)])
            )
        assert ResultCache(tmp_path).entry_count() == 0

    def test_completion_must_name_a_known_item(self):
        queue = WorkQueue(lease_seconds=30)
        with pytest.raises(FabricError) as excinfo:
            queue.complete("w1", {"item_id": "w00000042", "outcomes": []})
        assert excinfo.value.status == 404
        with pytest.raises(FabricError) as excinfo:
            queue.complete("w1", {"outcomes": []})
        assert excinfo.value.status == 400

    def test_duplicate_completion_is_idempotent(self):
        queue = WorkQueue(lease_seconds=30)
        queue.submit_chunk(_chunk(1))
        (claimed,), _ = queue.claim("w1")
        record = _completion(claimed, [_result(1)])
        assert queue.complete("w1", record)["status"] == "accepted"
        assert queue.complete("w2", record)["status"] == "duplicate"
        assert queue.snapshot()["completed_items"] == 1

    def test_late_valid_completion_wins_over_requeue(self):
        """An expired worker that finishes anyway still lands its result."""
        queue = WorkQueue(lease_seconds=0.03, max_attempts=5)
        future = queue.submit_chunk(_chunk(1))
        (claimed,), _ = queue.claim("slow")
        time.sleep(0.08)
        assert queue.snapshot()["pending"] == 1  # sweep requeued the item
        assert queue.complete("slow", _completion(claimed, [_result(1)]))["status"] == (
            "accepted"
        )
        assert future.result() == ([_result(1)], None)
        items, _ = queue.claim("other")  # nothing left to hand out
        assert items == []

    def test_cancelled_future_skips_execution(self):
        queue = WorkQueue(lease_seconds=30)
        future = queue.submit_chunk(_chunk(1))
        future.cancel()
        items, outstanding = queue.claim("w1")
        assert items == [] and outstanding == 0
        assert queue.snapshot()["failed"] == 1

    def test_env_knob_validation(self, monkeypatch):
        from repro.fabric import lease_seconds_from_env, max_attempts_from_env

        monkeypatch.setenv("REPRO_LEASE_SECONDS", "2.5")
        assert lease_seconds_from_env() == 2.5
        monkeypatch.setenv("REPRO_LEASE_SECONDS", "-1")
        with pytest.raises(ValueError, match="positive"):
            lease_seconds_from_env()
        monkeypatch.setenv("REPRO_LEASE_SECONDS", "soon")
        with pytest.raises(ValueError, match="number"):
            lease_seconds_from_env()
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "3")
        assert max_attempts_from_env() == 3
        monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "0")
        with pytest.raises(ValueError, match="at least 1"):
            max_attempts_from_env()


# ----------------------------------------------------------------------
# The Executor face the batch runner sees
# ----------------------------------------------------------------------
class TestRemoteExecutor:
    def test_only_execute_chunk_is_dispatchable(self):
        executor = RemoteExecutor(WorkQueue(lease_seconds=30))
        with pytest.raises(TypeError, match="execute_chunk"):
            executor.submit(print, ["job"])
        with pytest.raises(TypeError, match="trial_cache"):
            executor.submit(execute_chunk, [_job()])

    def test_submission_becomes_a_keyed_item(self):
        queue = WorkQueue(lease_seconds=30)
        executor = RemoteExecutor(queue)
        job = _job()
        future = executor.submit(execute_chunk, [job], trial_cache=None)
        (claimed,), _ = queue.claim("w1")
        assert claimed["keys"] == [job.key()]
        queue.complete("w1", _completion(claimed, [_result(1)]))
        assert future.result() == ([_result(1)], None)

    def test_trial_cache_reduces_to_its_directory(self, tmp_path):
        queue = WorkQueue(lease_seconds=30)
        executor = RemoteExecutor(queue)
        executor.submit(execute_chunk, [_job()], trial_cache=tmp_path)
        executor.submit(execute_chunk, [_job(index=1)], trial_cache=str(tmp_path))
        executor.submit(execute_chunk, [_job(index=2)], trial_cache=None)
        dirs = [item.extras_dir for item in queue._items.values()]
        assert dirs == [str(tmp_path), str(tmp_path), None]


# ----------------------------------------------------------------------
# Bit-equivalence with local execution (the tentpole acceptance)
# ----------------------------------------------------------------------
def _local_reference(spec: SweepSpec, cache_dir) -> tuple[str, list[str]]:
    """One serial local run: the JSON text and cache key inventory every
    remote scenario must reproduce exactly."""
    runner = BatchRunner(parallel=False, cache=ResultCache(cache_dir))
    result = Session(MICRO, runner=runner).sweep(spec)
    return result.to_json(), sorted(ResultCache(cache_dir).keys())


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The chaos workload's local truth, computed once for the module."""
    return _local_reference(CHAOS_SPEC, tmp_path_factory.mktemp("reference"))


def _remote_session(spec_dir, *, lease_seconds=30.0, max_attempts=5):
    """A session whose runner dispatches to a fresh shared coordinator.

    Returns ``(session, queue, coordinator cache dir)``; workers are the
    caller's to stage (that is the point of the chaos scenarios).
    """
    queue = WorkQueue(lease_seconds=lease_seconds, max_attempts=max_attempts)
    coordinator_dir = Path(spec_dir) / "coordinator"
    set_shared_coordinator(Coordinator(queue, cache=ResultCache(coordinator_dir)))
    runner = BatchRunner(
        parallel=True,
        max_workers=4,
        pool_mode="remote",
        cache=ResultCache(coordinator_dir),
    )
    return Session(MICRO, runner=runner), queue, coordinator_dir


class TestRemoteEquivalence:
    def test_remote_pool_matches_local_bytes_and_keys(self, tmp_path, reference):
        session, queue, coordinator_dir = _remote_session(tmp_path)
        specs = [
            {"cache_dir": tmp_path / "worker-0"},
            {"cache_dir": tmp_path / "worker-1"},
        ]
        with worker_fleet(queue, specs) as fleet:
            result = session.sweep(CHAOS_SPEC)
            executed_cold = session.runner.stats.executed
            warm = session.sweep(CHAOS_SPEC)
        reference_json, reference_keys = reference
        assert result.to_json() == reference_json
        assert sorted(ResultCache(coordinator_dir).keys()) == reference_keys
        snapshot = queue.snapshot()
        assert snapshot["pending"] == 0 and snapshot["leased"] == 0
        assert snapshot["done"] == 2  # the planner's two chunks, no retries
        assert sum(member.report.completed for member in fleet) == 2
        # The warm pass answers from the coordinator cache: same bytes,
        # zero new executions, zero new queue traffic.
        assert warm.to_json() == reference_json
        assert session.runner.stats.executed == executed_cold
        assert queue.snapshot()["done"] == 2

    @pytest.mark.parametrize("seed", [20260806, 8735])
    def test_randomized_grids_match_the_persistent_pool(self, tmp_path, seed):
        """Property-style: a random SweepSpec grid executes bit-identically
        under ``REPRO_POOL=persistent`` and the remote fabric."""
        rng = random.Random(seed)
        spec = SweepSpec(
            layers=tuple(rng.sample(["R6", "A2", "SQ5"], k=rng.randint(1, 2))),
            designs=tuple(
                rng.sample(
                    ["SIGMA-like", "SpArch-like", "GAMMA-like", "CPU-MKL"],
                    k=rng.randint(2, 3),
                )
            ),
            scale=0.05,
        )
        local_dir = tmp_path / "local"
        try:
            local = Session(
                MICRO,
                runner=BatchRunner(
                    parallel=True,
                    max_workers=2,
                    pool_mode="persistent",
                    cache=ResultCache(local_dir),
                ),
            ).sweep(spec)
        finally:
            reset_shared_pool()
        session, queue, coordinator_dir = _remote_session(tmp_path)
        specs = [
            {"cache_dir": tmp_path / "worker-0"},
            {"cache_dir": tmp_path / "worker-1"},
        ]
        with worker_fleet(queue, specs):
            remote = session.sweep(spec)
        assert remote.to_json() == local.to_json()
        assert sorted(ResultCache(coordinator_dir).keys()) == sorted(
            ResultCache(local_dir).keys()
        )
        assert queue.snapshot()["outstanding"] == 0


# ----------------------------------------------------------------------
# Fault injection: every scenario converges to the same bytes
# ----------------------------------------------------------------------
class TestChaosConvergence:
    def test_dead_workers_lease_is_requeued_and_rescued(self, tmp_path, reference):
        """``die_after:1``: the worker completes one chunk, then vanishes
        holding the second chunk's lease; a rescuer started only after the
        death must inherit the chunk via lease expiry."""
        session, queue, coordinator_dir = _remote_session(
            tmp_path, lease_seconds=0.4, max_attempts=10
        )
        mortal = start_worker(
            queue,
            worker_id="mortal",
            cache_dir=tmp_path / "w-mortal",
            chaos=Chaos("die_after", 1),
        )
        rescuers = start_worker_after(
            lambda: mortal.report.died,
            queue,
            worker_id="rescuer",
            cache_dir=tmp_path / "w-rescue",
        )
        try:
            result = session.sweep(CHAOS_SPEC)
        finally:
            mortal.stop()
            for member in rescuers:
                member.stop()
        assert mortal.report.died and mortal.report.completed == 1
        rescuer = wait_until(lambda: rescuers and rescuers[0], message="rescuer")
        assert rescuer.report.completed == 1
        snapshot = queue.snapshot()
        assert snapshot["requeued_leases"] >= 1
        assert snapshot["pending"] == 0 and snapshot["leased"] == 0
        reference_json, reference_keys = reference
        assert result.to_json() == reference_json
        assert sorted(ResultCache(coordinator_dir).keys()) == reference_keys

    def test_stalled_workers_chunk_is_reexecuted_elsewhere(
        self, tmp_path, reference
    ):
        """``stall``: the worker claims a chunk and hangs without
        heartbeating; the chunk must run to completion on a healthy worker
        while the staller still holds its dead lease."""
        session, queue, coordinator_dir = _remote_session(
            tmp_path, lease_seconds=0.4, max_attempts=10
        )
        staller = start_worker(
            queue,
            worker_id="staller",
            cache_dir=tmp_path / "w-stall",
            chaos=Chaos("stall"),
        )
        healthy = start_worker_after(
            lambda: staller.report.stalled,
            queue,
            worker_id="healthy",
            cache_dir=tmp_path / "w-healthy",
        )
        try:
            result = session.sweep(CHAOS_SPEC)
        finally:
            staller.stop()  # releases the stall wait too
            for member in healthy:
                member.stop()
        assert staller.report.stalled and staller.report.completed == 0
        snapshot = queue.snapshot()
        assert snapshot["requeued_leases"] >= 1
        assert snapshot["pending"] == 0 and snapshot["leased"] == 0
        assert snapshot["done"] == 2  # both chunks, one of them rescued
        reference_json, reference_keys = reference
        assert result.to_json() == reference_json
        assert sorted(ResultCache(coordinator_dir).keys()) == reference_keys

    def test_corrupt_uploads_never_poison_the_cache(self, tmp_path, reference):
        """``corrupt``: every upload from the chaos worker fails digest
        re-verification; the coordinator must reject each one, requeue the
        work, and let a healthy worker land the real bytes."""
        session, queue, coordinator_dir = _remote_session(
            tmp_path, lease_seconds=5.0, max_attempts=20
        )
        corruptor = start_worker(
            queue,
            worker_id="corruptor",
            cache_dir=tmp_path / "w-corrupt",
            chaos=Chaos("corrupt"),
            poll_seconds=0.2,  # let the healthy worker win requeued claims
        )
        healthy = start_worker_after(
            lambda: corruptor.report.rejected,
            queue,
            worker_id="healthy",
            cache_dir=tmp_path / "w-healthy",
        )
        try:
            result = session.sweep(CHAOS_SPEC)
        finally:
            corruptor.stop()
            for member in healthy:
                member.stop()
        assert corruptor.report.completed == 0
        assert corruptor.report.rejected >= 1
        assert any(
            "corrupt upload" in message
            for message in corruptor.report.rejected_messages
        )
        snapshot = queue.snapshot()
        assert snapshot["rejected_uploads"] >= 1
        assert snapshot["pending"] == 0 and snapshot["leased"] == 0
        reference_json, reference_keys = reference
        assert result.to_json() == reference_json
        # The cache holds exactly the local run's keys and every stored
        # blob still decodes — nothing corrupt ever landed.
        coordinator_cache = ResultCache(coordinator_dir)
        assert sorted(coordinator_cache.keys()) == reference_keys
        for key in coordinator_cache.keys():
            wire.decode_result(coordinator_cache.get_blob(key))

    def test_exhausted_lease_budget_fails_the_batch(self, tmp_path):
        """With only a corrupting worker and one lease allowed per item,
        the queue gives up and the runner surfaces the failure instead of
        hanging forever on an unresolvable future."""
        session, queue, _ = _remote_session(
            tmp_path, lease_seconds=30.0, max_attempts=1
        )
        corruptor = start_worker(
            queue,
            worker_id="corruptor",
            cache_dir=tmp_path / "w-corrupt",
            chaos=Chaos("corrupt"),
        )
        try:
            with pytest.raises(RemoteWorkerError, match="gave up"):
                session.sweep(CHAOS_SPEC)
        finally:
            corruptor.stop()
        assert queue.snapshot()["failed"] >= 1


# ----------------------------------------------------------------------
# Coordinator-path chaos: the worker's backoff ladder and breaker
# ----------------------------------------------------------------------
class TestCoordinatorChaos:
    def test_slow_coordinator_converges_bit_identically(self, tmp_path, reference):
        """``slow_coordinator``: every claim/heartbeat/complete is delayed;
        the sweep must still converge to the local run's exact bytes —
        latency on the control path may slow a sweep, never change it."""
        session, queue, coordinator_dir = _remote_session(tmp_path)
        slow = ChaosClient(queue, "slow_coordinator", delay=0.02)
        specs = [
            {"cache_dir": tmp_path / "worker-0"},
            {"cache_dir": tmp_path / "worker-1"},
        ]
        with worker_fleet(slow, specs) as fleet:
            result = session.sweep(CHAOS_SPEC)
        assert slow.calls >= 2  # the delay path actually ran
        assert sum(member.report.completed for member in fleet) == 2
        reference_json, reference_keys = reference
        assert result.to_json() == reference_json
        assert sorted(ResultCache(coordinator_dir).keys()) == reference_keys
        assert queue.snapshot()["outstanding"] == 0

    def test_refused_connections_open_the_breaker_then_recover(
        self, tmp_path, reference
    ):
        """``refuse_conn``: a dead coordinator trips the worker's circuit
        breaker — attempts against it stay bounded by the half-open probe
        cadence instead of the poll rate — and once the coordinator comes
        back, the same worker completes the sweep bit-identically."""
        session, queue, coordinator_dir = _remote_session(tmp_path)
        dead = ChaosClient(queue, "refuse_conn", failures=float("inf"))
        member = start_worker(
            dead,
            worker_id="patient",
            cache_dir=tmp_path / "w-patient",
            breaker=resilience.CircuitBreaker(threshold=3, reset_seconds=0.05),
        )
        try:
            wait_until(
                lambda: member.report.breaker_opens >= 1,
                message="breaker to open",
            )
            # While the breaker holds, connection attempts are probes, not
            # polls: over a multi-reset observation window the worker must
            # attempt far fewer times than its 10 ms poll cadence would.
            refused_at_open = dead.refused
            time.sleep(0.4)
            assert dead.refused - refused_at_open <= 10
            assert member.report.claimed == 0
            # The coordinator comes back: the next half-open probe succeeds,
            # the breaker closes, and the sweep completes on this worker.
            dead.failures = 0
            result = session.sweep(CHAOS_SPEC)
        finally:
            member.stop()
        assert member.report.breaker_opens >= 1
        assert member.report.claim_failures >= 3  # at least the threshold
        assert member.report.completed == 2
        reference_json, reference_keys = reference
        assert result.to_json() == reference_json
        assert sorted(ResultCache(coordinator_dir).keys()) == reference_keys


# ----------------------------------------------------------------------
# HTTP surfaces: standalone listener, serve-mounted routes, CLI worker
# ----------------------------------------------------------------------
def _http(server, method, path, body=None, headers=None):
    """One HTTP exchange; returns ``(status, headers-dict, body-bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _paced_post(port, path, size=2 << 20, piece=64 << 10, gap_seconds=0.002):
    """POST an oversized body the way a slow uploader does; return the status.

    The body goes out in ``piece``-sized writes ``gap_seconds`` apart, so
    the server answers long before the client has finished sending.
    """
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {size}\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(head.encode("latin-1"))
        for offset in range(0, size, piece):
            sock.sendall(b"x" * min(piece, size - offset))
            time.sleep(gap_seconds)
        with sock.makefile("rb") as response:
            return int(response.readline().split()[1])


def _poll(server, url, deadline_seconds=120.0):
    deadline = time.monotonic() + deadline_seconds
    while True:
        status, headers, body = _http(server, "GET", url)
        if status != 202:
            return status, headers, body
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.05)


@contextlib.contextmanager
def _both_listeners(tmp_path, queue: WorkQueue):
    """The two surfaces over one queue: a serve front-end in remote pool
    mode and the standalone listener; yields one port-carrying handle each."""
    coordinator = Coordinator(queue, cache=ResultCache(tmp_path / "coordinator"))
    set_shared_coordinator(coordinator)  # the hygiene fixture closes it
    url = coordinator.ensure_listener(port=0)
    session = Session(
        MICRO,
        runner=BatchRunner(
            parallel=True,
            max_workers=2,
            pool_mode="remote",
            cache=ResultCache(tmp_path / "serve"),
        ),
    )
    with BackgroundServer(session) as server:
        yield [server, SimpleNamespace(port=int(url.rsplit(":", 1)[1]))]


class TestHttpFabric:
    @pytest.mark.parametrize("field, value", [("outcomes", 5), ("extras", None)])
    def test_malformed_upload_is_rejected_on_both_listeners(
        self, tmp_path, field, value
    ):
        """An upload whose outcomes or extras are no list is corrupt: a
        ``400``, counted, and its lease released — on either surface."""
        queue = WorkQueue(lease_seconds=30)
        with _both_listeners(tmp_path, queue) as listeners:
            for listener in listeners:
                queue.submit_chunk(_chunk(1))
                claim = json.dumps({"worker": "w1"}).encode()
                status, _headers, body = _http(listener, "POST", "/v1/work/claim", claim)
                assert status == 200, body
                (item,) = json.loads(body)["items"]
                upload = {
                    "worker": "w1",
                    **_completion(item, []),
                    field: value,
                }
                status, _headers, body = _http(
                    listener, "POST", "/v1/work/complete", json.dumps(upload).encode()
                )
                assert status == 400, body
                assert "corrupt upload rejected" in json.loads(body)["error"]
        snapshot = queue.snapshot()
        assert snapshot["rejected_uploads"] == 2
        assert snapshot["leased"] == 0 and snapshot["pending"] == 2

    def test_a_failing_route_answers_500_on_both_listeners(
        self, tmp_path, monkeypatch
    ):
        """A fabric route that raises is a ``500`` on either surface, and
        the connection loop goes on serving."""
        from repro.fabric import api

        def broken(*_args):
            raise RuntimeError("route bug")

        monkeypatch.setattr(api, "dispatch_route", broken)
        with _both_listeners(tmp_path, WorkQueue(lease_seconds=30)) as listeners:
            for listener in listeners:
                status, _headers, body = _http(listener, "GET", "/v1/work/stats")
                assert status == 500
                assert json.loads(body)["error"] == "RuntimeError: route bug"
                assert _http(listener, "GET", "/healthz")[0] == 200

    def test_standalone_listener_speaks_the_whole_protocol(self, tmp_path):
        queue = WorkQueue(lease_seconds=30)
        cache = ResultCache(tmp_path / "coordinator")
        coordinator = Coordinator(queue, cache=cache)
        set_shared_coordinator(coordinator)  # the hygiene fixture closes it
        url = coordinator.ensure_listener(port=0)
        assert coordinator.url == url

        with urllib.request.urlopen(url + "/healthz", timeout=60) as response:
            assert json.loads(response.read())["status"] == "ok"

        # Cache replication routes: inventory, entry bytes, digest header,
        # and the content-key gate on the entry path.
        key = _content_key("replicated entry")
        blob = records.encode(_result(1))
        cache.put_blob(key, blob)
        with urllib.request.urlopen(url + "/v1/cache/keys", timeout=60) as response:
            inventory = json.loads(response.read())
        assert inventory["kind"] == "cache_keys" and key in inventory["keys"]
        with urllib.request.urlopen(
            url + "/v1/cache/entry/" + key, timeout=60
        ) as response:
            assert response.headers[CONTENT_DIGEST_HEADER] == wire.digest(blob)
            assert response.read() == blob
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/v1/cache/entry/" + "zz" * 32, timeout=60)
        assert excinfo.value.code == 404

        # Work routes, driven by a real worker over HTTP: the future the
        # runner would wait on resolves to locally-identical outcomes.
        job = _job()
        future = queue.submit_chunk([(job.key(), job)])
        member = start_worker(url, worker_id="http-worker", cache_dir=tmp_path / "w0")
        try:
            outcomes, error = future.result(timeout=180)
        finally:
            member.stop()
        assert error is None and len(outcomes) == 1
        local_outcomes, local_error = execute_chunk([job], trial_cache=None)
        assert local_error is None
        assert outcomes[0].total_cycles == local_outcomes[0].total_cycles

        with urllib.request.urlopen(url + "/v1/work/stats", timeout=60) as response:
            stats = json.loads(response.read())
        assert stats["kind"] == "work_stats"
        assert stats["done"] == 1 and stats["outstanding"] == 0

    def test_serve_front_end_is_a_coordinator_surface(self, tmp_path):
        """The full remote-sweep lifecycle through ``repro.serve``: cold 202,
        workers drain over the same port, poll to 200, bytes identical to a
        local serial session, warm repeat with zero executions, and
        anti-entropy ``cache pull`` of everything the sweep deposited."""
        cache_dir = tmp_path / "serve-cache"
        queue = WorkQueue(lease_seconds=30)
        serve_cache = ResultCache(cache_dir)
        set_shared_coordinator(Coordinator(queue, cache=serve_cache))
        session = Session(
            MICRO,
            runner=BatchRunner(
                parallel=True,
                max_workers=4,
                pool_mode="remote",
                cache=ResultCache(cache_dir),
            ),
        )
        spec = SweepSpec(
            layers=("R6", "A2"), designs=("SIGMA-like", "GAMMA-like"), scale=0.05
        )
        body = json.dumps(
            {"layers": ["R6", "A2"], "designs": ["SIGMA-like", "GAMMA-like"],
             "scale": 0.05}
        ).encode()
        with BackgroundServer(session) as server:
            url = f"http://127.0.0.1:{server.port}"
            specs = [
                {"cache_dir": tmp_path / "worker-0"},
                {"cache_dir": tmp_path / "worker-1"},
            ]
            with worker_fleet(url, specs):
                status, headers, payload = _http(
                    server, "POST", "/v1/sweep", body,
                    {"Content-Type": "application/json"},
                )
                assert status == 202, payload
                status, headers, payload = _poll(server, headers["Location"])
            assert status == 200
            local = Session(
                MICRO,
                runner=BatchRunner(
                    parallel=False, cache=ResultCache(tmp_path / "local")
                ),
            ).sweep(spec)
            assert payload == (local.to_json() + "\n").encode()

            status, _headers, stats_body = _http(server, "GET", "/v1/work/stats")
            assert status == 200
            stats = json.loads(stats_body)
            assert stats["kind"] == "work_stats" and stats["done"] >= 1

            # Warm repeat: answered synchronously from the finished job.
            status, headers, warm_payload = _http(
                server, "POST", "/v1/sweep", body,
                {"Content-Type": "application/json"},
            )
            assert status == 200
            assert headers["X-Repro-Jobs-Executed"] == "0"
            assert warm_payload == payload

            # Anti-entropy replication into a fresh peer cache.
            pulled = ResultCache(tmp_path / "pulled")
            report = pull_cache(pulled, url)
            assert report.remote_entries > 0 and report.skipped == 0
            assert report.fetched == report.remote_entries
            # Every entry but the rendered sweep body: a body key is not a
            # content key, so it never replicates.
            bodies = [key for key in serve_cache.keys() if key.startswith("sweep-")]
            assert len(bodies) == 1
            assert sorted(pulled.keys()) == sorted(set(serve_cache.keys()) - set(bodies))
            again = pull_cache(pulled, url)
            assert again.fetched == 0
            assert again.already_present == again.remote_entries

    def test_plain_serve_does_not_mount_fabric_routes(self, tmp_path):
        """A query-only serve instance (local pool) must not carry the
        fabric surface at all — every fabric path
        answers 404, exactly like any unknown route."""
        session = Session(
            MICRO,
            runner=BatchRunner(parallel=False, cache=ResultCache(tmp_path / "c")),
        )
        with BackgroundServer(session) as server:
            for method, path, body in [
                ("GET", "/v1/work/stats", None),
                ("GET", "/v1/cache/keys", None),
                ("POST", "/v1/work/claim", json.dumps({"worker": "rogue"}).encode()),
                ("POST", "/v1/work/complete", json.dumps({"item_id": "w1"}).encode()),
            ]:
                status, _headers, _payload = _http(
                    server, method, path, body,
                    {"Content-Type": "application/json"} if body else None,
                )
                assert status == 404, (method, path)
            # The ordinary query surface is untouched by the gating.
            status, _headers, _payload = _http(server, "GET", "/healthz")
            assert status == 200

    def test_big_bodies_only_pass_on_the_upload_route(self, tmp_path):
        """Even on a coordinator surface, the 64 MiB bound applies to
        ``/v1/work/complete`` alone — a tiny-JSON route keeps the 1 MiB
        bound and answers 413 to an oversized body."""
        queue = WorkQueue(lease_seconds=30)
        set_shared_coordinator(
            Coordinator(queue, cache=ResultCache(tmp_path / "c"))
        )
        session = Session(
            MICRO,
            runner=BatchRunner(
                parallel=True,
                max_workers=2,
                pool_mode="remote",
                cache=ResultCache(tmp_path / "c"),
            ),
        )
        big = json.dumps({"item_id": "w99999999", "pad": "x" * (2 << 20)}).encode()
        with BackgroundServer(session) as server:
            status, _headers, _payload = _http(
                server, "POST", "/v1/sweep", big,
                {"Content-Type": "application/json"},
            )
            assert status == 413
            # The upload route reads the same body fine (and then rejects
            # it for naming an unknown item, proving it got past the bound).
            status, _headers, _payload = _http(
                server, "POST", "/v1/work/complete", big,
                {"Content-Type": "application/json"},
            )
            assert status == 404

    def test_paced_oversized_upload_reads_413_on_both_listeners(self, tmp_path):
        """A 413 reaches a client still sending its body: the server drains
        the declared bytes before answering, instead of closing on unread
        data (which the client sees as a broken pipe)."""
        with BackgroundServer(Session(MICRO, parallel=False, cache=None)) as server:
            assert _paced_post(server.port, "/v1/sweep") == 413
        coordinator = Coordinator(WorkQueue(lease_seconds=30), cache=None)
        set_shared_coordinator(coordinator)  # the hygiene fixture closes it
        url = coordinator.ensure_listener(port=0)
        port = int(url.rsplit(":", 1)[1])
        assert _paced_post(port, "/v1/work/claim") == 413

    def test_worker_cli_subprocess_end_to_end(self, tmp_path):
        """``python -m repro worker <url>`` — the real deployment shape —
        claims and completes a chunk against a live listener."""
        queue = WorkQueue(lease_seconds=30)
        coordinator = Coordinator(queue, cache=ResultCache(tmp_path / "coordinator"))
        set_shared_coordinator(coordinator)
        url = coordinator.ensure_listener(port=0)
        job = _job()
        future = queue.submit_chunk([(job.key(), job)])
        repo = Path(__file__).resolve().parent.parent
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker", url,
                "--id", "subprocess-worker",
                "--cache-dir", str(tmp_path / "worker-cache"),
                "--poll-seconds", "0.05",
            ],
            cwd=repo,
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            outcomes, error = future.result(timeout=300)
        finally:
            process.terminate()
            stderr = process.communicate(timeout=60)[1].decode()
        assert error is None and len(outcomes) == 1, stderr
        assert "subprocess-worker polling" in stderr
        assert queue.snapshot()["done"] == 1


# ----------------------------------------------------------------------
# Authentication and exposure gates
# ----------------------------------------------------------------------
class _FakeResponse:
    def __init__(self, payload, headers):
        self._payload = payload
        self.headers = headers

    def read(self):
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def _fake_peer(monkeypatch, key: str, blob: bytes, headers: dict) -> None:
    """Make ``cache pull`` talk to a peer that lists ``key`` and serves
    ``blob`` with ``headers`` for it."""
    from repro.fabric import sync

    def fake_open(url, timeout):
        if url.endswith("/v1/cache/keys"):
            return _FakeResponse(json.dumps({"keys": [key]}).encode(), {})
        return _FakeResponse(blob, headers)

    monkeypatch.setattr(sync, "_open", fake_open)


class TestFabricAuth:
    def test_dispatch_requires_the_token_when_configured(self, monkeypatch):
        from repro.fabric import api
        from repro.httpd import Request

        queue = WorkQueue(lease_seconds=30)

        def stats(headers):
            return api.dispatch_route(
                "/v1/work/stats",
                Request(method="GET", path="/v1/work/stats", headers=headers),
                queue,
                None,
            )

        monkeypatch.delenv("REPRO_FABRIC_TOKEN", raising=False)
        assert stats({}).status == 200  # tokenless deployments stay open
        monkeypatch.setenv("REPRO_FABRIC_TOKEN", "fabric-secret")
        assert stats({}).status == 403
        assert stats({api.TOKEN_HEADER.lower(): "wrong"}).status == 403
        assert stats({api.TOKEN_HEADER.lower(): "fabric-secret"}).status == 200

    def test_non_loopback_listener_requires_a_token(self, monkeypatch):
        monkeypatch.delenv("REPRO_FABRIC_TOKEN", raising=False)
        coordinator = Coordinator(WorkQueue(lease_seconds=30), cache=None)
        try:
            with pytest.raises(ValueError, match="REPRO_FABRIC_TOKEN"):
                coordinator.ensure_listener(host="0.0.0.0", port=0)
            assert coordinator.url is None
            monkeypatch.setenv("REPRO_FABRIC_TOKEN", "fabric-secret")
            assert coordinator.ensure_listener(host="0.0.0.0", port=0)
        finally:
            coordinator.close()

    def test_token_protected_listener_end_to_end(self, tmp_path, monkeypatch):
        """With the secret exported, a tokenless client is refused while the
        worker and ``cache pull`` (which read the same variable) work."""
        monkeypatch.setenv("REPRO_FABRIC_TOKEN", "fabric-secret")
        queue = WorkQueue(lease_seconds=30)
        cache = ResultCache(tmp_path / "coordinator")
        coordinator = Coordinator(queue, cache=cache)
        set_shared_coordinator(coordinator)  # the hygiene fixture closes it
        url = coordinator.ensure_listener(port=0)

        for route in ("/v1/work/stats", "/v1/cache/keys"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url + route, timeout=60)
            assert excinfo.value.code == 403, route

        job = _job()
        future = queue.submit_chunk([(job.key(), job)])
        member = start_worker(url, worker_id="tokened", cache_dir=tmp_path / "w0")
        try:
            outcomes, error = future.result(timeout=180)
        finally:
            member.stop()
        assert error is None and len(outcomes) == 1

        pulled = ResultCache(tmp_path / "pulled")
        report = pull_cache(pulled, url)
        assert report.skipped == 0
        assert sorted(pulled.keys()) == sorted(cache.keys())

    def test_pull_skips_entries_without_a_digest_header(
        self, tmp_path, monkeypatch
    ):
        """A peer (or proxy) that strips the digest header gets its entries
        skipped — 'digest-verified before storing' is strict, not
        best-effort."""
        key = _content_key("naked entry")
        _fake_peer(monkeypatch, key, records.encode(_result(1)), {})  # no digest header
        report = pull_cache(ResultCache(tmp_path), "http://peer")
        assert report.remote_entries == 1
        assert report.skipped == 1 and report.fetched == 0
        assert ResultCache(tmp_path).get_blob(key) is None


# ----------------------------------------------------------------------
# The worker's nested-result cache
# ----------------------------------------------------------------------
class _UploadLog:
    """A queue client that keeps every upload record it forwards."""

    def __init__(self, queue: WorkQueue) -> None:
        self.inner = DirectClient(queue)
        self.uploads: list[dict] = []

    def claim(self, worker, max_items):
        return self.inner.claim(worker, max_items)

    def heartbeat(self, worker, item_ids):
        return self.inner.heartbeat(worker, item_ids)

    def complete(self, worker, record):
        self.uploads.append(record)
        return self.inner.complete(worker, record)


class TestWorkerTrialCache:
    def test_a_worker_builds_one_cache_for_every_item(self, tmp_path, monkeypatch):
        built = []
        original = RecordingCache.__init__

        def counting(self, directory):
            built.append(directory)
            original(self, directory)

        monkeypatch.setattr(RecordingCache, "__init__", counting)
        queue = WorkQueue(lease_seconds=30)
        futures = [
            queue.submit_chunk([(job.key(), job)])
            for job in (_job(index=index) for index in range(3))
        ]
        member = start_worker(queue, worker_id="one-cache", cache_dir=tmp_path / "w")
        try:
            for future in futures:
                assert future.result(timeout=180)[1] is None
        finally:
            member.stop()
        assert member.report.completed == 3
        assert len(built) == 1

    def test_memory_hits_of_an_earlier_item_are_still_uploaded(
        self, tmp_path, monkeypatch
    ):
        job = _job(design="Flexagon")
        queue = WorkQueue(lease_seconds=30)
        log = _UploadLog(queue)
        from_disk: list[str] = []
        load = ResultCache._load

        def spying_load(self, keys):
            found = load(self, keys)
            from_disk.extend(found)
            return found

        monkeypatch.setattr(ResultCache, "_load", spying_load)
        member = start_worker(log, worker_id="memory-hits", cache_dir=tmp_path / "w")
        try:
            assert queue.submit_chunk([(job.key(), job)]).result(timeout=180)[1] is None
            from_disk.clear()
            assert queue.submit_chunk([(job.key(), job)]).result(timeout=180)[1] is None
        finally:
            member.stop()
        first, second = ({e["key"]: e["data"] for e in u["extras"]} for u in log.uploads)
        assert first and second == first  # the oracle's trials, both times
        assert not set(second) & set(from_disk)  # read from the memory level


# ----------------------------------------------------------------------
# Inert payloads: pickle bytes that would run code are only bytes
# ----------------------------------------------------------------------
#: A protocol-4 pickle naming ``os.getpid`` through the module
#: ``repro.knobs`` (a dotted name an allowlist of ``repro.*`` modules
#: admits) and calling it with no arguments.
PROBE = b"\x80\x04\x8c\x0brepro.knobs\x8c\x09os.getpid\x93)R."


@contextlib.contextmanager
def _getpid_recorded(monkeypatch):
    """A recording stub stands in for ``os.getpid`` inside the block;
    yields the list of its calls."""
    calls: list[tuple] = []
    real = os.getpid

    def stub(*args):
        calls.append(args)
        return real()

    with monkeypatch.context() as patch:
        patch.setattr(os, "getpid", stub)
        yield calls


class TestInertPayloads:
    def test_a_probe_job_list_is_refused(self, monkeypatch):
        with _getpid_recorded(monkeypatch) as calls, pytest.raises(wire.IntegrityError):
            wire.decode_jobs(wire.encode_blob(PROBE))
        assert calls == []

    @pytest.mark.parametrize("field", ["outcomes", "extras"])
    def test_a_probe_upload_answers_400_and_stores_nothing(
        self, tmp_path, monkeypatch, field
    ):
        queue = WorkQueue(lease_seconds=30)
        future = queue.submit_chunk(_chunk(1), extras_dir=str(tmp_path))
        (claimed,), _ = queue.claim("w1")
        if field == "outcomes":
            record = _completion(claimed, [])
            record["outcomes"] = [wire.encode_blob(PROBE)]
        else:
            record = _completion(
                claimed, [_result(0)], extras=[(_content_key("probe"), PROBE)]
            )
        with _getpid_recorded(monkeypatch) as calls, pytest.raises(FabricError) as excinfo:
            queue.complete("w1", record)
        assert calls == []
        assert excinfo.value.status == 400
        snapshot = queue.snapshot()
        assert snapshot["rejected_uploads"] == 1 and snapshot["pending"] == 1
        assert not future.done()
        assert ResultCache(tmp_path).entry_count() == 0

    def test_a_pulled_probe_entry_is_skipped(self, tmp_path, monkeypatch):
        key = _content_key("probe entry")
        _fake_peer(monkeypatch, key, PROBE, {CONTENT_DIGEST_HEADER: wire.digest(PROBE)})
        with _getpid_recorded(monkeypatch) as calls:
            report = pull_cache(ResultCache(tmp_path), "http://peer")
        assert calls == []
        assert report.skipped == 1 and report.fetched == 0
        assert ResultCache(tmp_path).get_blob(key) is None
        assert ResultCache(tmp_path).entry_count() == 0
