"""Timed fabric benchmark: remote-worker scaling and warm-path overhead.

Starts a coordinator with its HTTP listener on an ephemeral port, spawns
real ``python -m repro worker`` subprocesses against it, and measures one
cold sweep grid end to end through ``REPRO_POOL=remote``:

* **cold 1-worker / 2-worker wall-clock** — the same grid executed by one
  and by two worker processes, each measurement from fully cold caches
  (coordinator and workers alike);
* **scaling speedup** — cold 1-worker time over cold 2-worker time: how
  much of the second worker the fabric actually converts into throughput
  (lease bookkeeping, claim polling and upload verification all tax it);
* **warm wall-clock** — the same sweep re-run against the now-populated
  coordinator cache: zero executions, no worker round-trips.

Every run also asserts bit-equivalence: the 1-worker, 2-worker and warm
result JSON must be byte-identical.

The regression gate is the **scaling speedup** — a machine-relative ratio
(both measurements run on the same box), so the check stays meaningful on
runners of any absolute speed.  In ``--check`` mode the bench fails when
the measured speedup drops below the tolerance fraction (default 80%,
i.e. a >20% regression) of the committed baseline's.  On a single-core
host the speedup sits *below* 1.0 — two CPU-bound worker processes can
only oversubscribe one core — which is still a valid baseline: the ratio
is what must not regress, and the record carries ``host_cpus`` so a
reader can interpret the absolute value.

Usage::

    PYTHONPATH=src python scripts/bench_fabric.py                   # record
    PYTHONPATH=src python scripts/bench_fabric.py --check BENCH_fabric.json
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from benchgate import Bench
from repro.api import Session, SweepSpec
from repro.experiments.settings import default_settings
from repro.fabric import Coordinator, WorkQueue, reset_shared_fabric, set_shared_coordinator
from repro.runtime import BatchRunner, ResultCache

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The benchmark grid: 24 jobs the cost planner packs into several chunks,
#: so two workers genuinely split the work instead of alternating on one
#: item at a time.
BENCH_LAYERS = ("R6", "A2", "SQ5", "V0", "R4", "V7")


def _spawn_worker(url: str, cache_dir: Path, index: int) -> subprocess.Popen:
    """One real ``python -m repro worker`` subprocess, waited until ready."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker", url,
            "--id", f"bench-{index}",
            "--cache-dir", str(cache_dir),
            "--poll-seconds", "0.02",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready = process.stderr.readline()  # the "<id> polling <url>" banner
    if "polling" not in ready:
        process.terminate()
        raise RuntimeError(f"worker {index} failed to start: {ready!r}")
    # Keep draining so a chatty worker can never block on a full pipe.
    threading.Thread(
        target=lambda: process.stderr.read(), daemon=True
    ).start()
    return process


def _measure_once(num_workers: int, settings, spec: SweepSpec) -> dict:
    """One fully cold sweep through ``num_workers`` worker subprocesses."""
    with tempfile.TemporaryDirectory(prefix="bench-fabric-") as tmp_name:
        tmp = Path(tmp_name)
        coordinator_dir = tmp / "coordinator"
        coordinator = Coordinator(
            WorkQueue(lease_seconds=60.0), cache=ResultCache(coordinator_dir)
        )
        set_shared_coordinator(coordinator)
        url = coordinator.ensure_listener(host="127.0.0.1", port=0)
        workers = [
            _spawn_worker(url, tmp / f"worker-{index}", index)
            for index in range(num_workers)
        ]
        try:
            runner = BatchRunner(
                parallel=True,
                max_workers=8,
                pool_mode="remote",
                cache=ResultCache(coordinator_dir),
            )
            session = Session(settings, runner=runner)
            start = time.perf_counter()
            result = session.sweep(spec)
            cold_seconds = time.perf_counter() - start

            # Warm pass: the coordinator cache answers everything; no chunk
            # may reach the queue again.
            warm_runner = BatchRunner(
                parallel=True,
                max_workers=8,
                pool_mode="remote",
                cache=ResultCache(coordinator_dir),
            )
            start = time.perf_counter()
            warm = Session(settings, runner=warm_runner).sweep(spec)
            warm_seconds = time.perf_counter() - start
            assert warm_runner.stats.executed == 0, "warm pass re-executed jobs"
            assert warm.to_json() == result.to_json(), "warm bytes diverged"
            return {
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "executed": runner.stats.executed,
                "json": result.to_json(),
            }
        finally:
            for process in workers:
                process.terminate()
            for process in workers:
                process.wait(timeout=60)
            reset_shared_fabric()


def measure(budget: float, max_layers: int, scale: float) -> dict:
    settings = default_settings(
        max_dense_macs=budget, max_layers_per_model=max_layers
    )
    spec = SweepSpec(layers=BENCH_LAYERS, scale=scale)
    jobs, _meta = spec.compile(settings)

    single = _measure_once(1, settings, spec)
    double = _measure_once(2, settings, spec)
    assert single["json"] == double["json"], "worker count changed the bytes"
    return {
        "jobs": len(jobs),
        "cold_1worker_seconds": round(single["cold_seconds"], 3),
        "cold_2worker_seconds": round(double["cold_seconds"], 3),
        "speedup_2v1": round(single["cold_seconds"] / double["cold_seconds"], 3),
        "warm_seconds": round(double["warm_seconds"], 3),
    }


def main(argv: list[str] | None = None) -> int:
    bench = Bench(__doc__, "BENCH_fabric.json")
    bench.parser.add_argument(
        "--budget", type=float, default=1e6,
        help="per-layer dense-MAC budget of the benchmark settings",
    )
    bench.parser.add_argument(
        "--max-layers", type=int, default=2, help="sampled layers per model"
    )
    bench.parser.add_argument(
        "--scale", type=float, default=0.3,
        help="operand downscale factor of the benchmark grid",
    )
    args = bench.parse(argv)

    best: dict | None = None
    for _ in range(max(1, args.repeats)):
        measured = measure(args.budget, args.max_layers, args.scale)
        if best is None or measured["speedup_2v1"] > best["speedup_2v1"]:
            best = measured
    assert best is not None
    record: dict = {
        "layers": list(BENCH_LAYERS),
        "scale": args.scale,
        "max_dense_macs": args.budget,
        "max_layers_per_model": args.max_layers,
        "repeats": args.repeats,
        "host_cpus": os.cpu_count(),
        **best,
    }
    for key in (
        "jobs", "cold_1worker_seconds", "cold_2worker_seconds",
        "speedup_2v1", "warm_seconds",
    ):
        print(f"{key:22s} {record[key]}", file=sys.stderr)
    return bench.finish(record, {"speedup_2v1": "higher"})


if __name__ == "__main__":
    raise SystemExit(main())
