"""Timed runtime benchmark: cold parallel fig12+fig15, with exact work counts.

Runs the fig12+fig15 suite cold on the default runtime (persistent worker
pool, cost-aware scheduling, streaming cache writes, engine runs shared
through the cache) in a fresh subprocess over a fresh result cache, and
records:

* ``seconds`` — the suite's wall-clock (best of ``--repeats``);
* ``jobs_executed`` — the figure jobs the runner simulated;
* ``engine_runs_stored`` — the nested engine runs the suite stored (cache
  entries minus jobs).

It also measures cache-scan throughput (keys/second) of the batched
:meth:`ResultCache.get_many` pre-dispatch scan against a per-key ``get``
loop over a half-warm key set.

``--check`` fails unless both counts equal the committed record's.  They
are exact on any host, so a change to the jobs the suite runs or to the
engine runs it stores in the sweep's cache fails the check.  The seconds are
recorded but not gated: the repository benchmark's ``figures_cold``
workload (``perfbench/``) bounds this path's time.

Usage::

    PYTHONPATH=src python scripts/bench_runtime.py                    # record
    PYTHONPATH=src python scripts/bench_runtime.py --check BENCH_runtime.json
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

from benchgate import Bench

SUITE = ("fig12", "fig15")

_CHILD_CODE = """
import sys, time
from repro.api import Session
from repro.experiments.settings import default_settings
from repro.runtime import BatchRunner, ResultCache

budget, max_layers, workers, cache_dir = (
    float(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
)
settings = default_settings(max_dense_macs=budget, max_layers_per_model=max_layers)
cache = ResultCache(cache_dir)
session = Session(
    settings, runner=BatchRunner(parallel=True, max_workers=workers, cache=cache)
)
start = time.perf_counter()
for figure in ("fig12", "fig15"):
    session.figure(figure)
seconds = time.perf_counter() - start
executed = session.stats.executed
print(seconds, executed, cache.entry_count() - executed)
"""


def run_suite(budget: float, max_layers: int, workers: int) -> tuple[float, int, int]:
    """``(seconds, jobs executed, engine runs stored)`` of one cold suite.

    A subprocess per measurement keeps every process-wide amortisation the
    runtime relies on (worker pool, materialisation memos) inside the
    measured window, and a fresh cache directory keeps the run cold.
    """
    # The committed counts describe the default runtime, so no REPRO_* knob
    # the caller exported may reach the child.
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH", "")) if p
    )
    cache_dir = tempfile.mkdtemp(prefix="bench-runtime-cache-")
    try:
        proc = subprocess.run(
            [
                sys.executable, "-c", _CHILD_CODE,
                str(budget), str(max_layers), str(workers), cache_dir,
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            # Surface the child's traceback; CalledProcessError alone would
            # swallow it and leave a CI failure undiagnosable.
            sys.stderr.write(proc.stderr)
            raise subprocess.CalledProcessError(
                proc.returncode, proc.args, output=proc.stdout, stderr=proc.stderr
            )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    seconds, executed, stored = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), int(executed), int(stored)


def bench_cache_scan(num_entries: int = 2048) -> dict[str, float]:
    """Keys/second of the batched hit scan vs a per-key ``get`` loop.

    Half the probed keys exist (reads) and half do not (pure scan cost) —
    the profile of a partially warm sweep.  Fresh cache instances per
    measurement keep the in-memory blob level cold.
    """
    from repro.runtime import MISS, ResultCache

    directory = tempfile.mkdtemp(prefix="bench-runtime-scan-")
    try:
        cache = ResultCache(directory)
        present = [f"{i:064x}" for i in range(num_entries)]
        absent = [f"{i + num_entries:064x}" for i in range(num_entries)]
        for key in present:
            cache.put(key, {"cycles": float(len(key))})
        probe = present + absent

        start = time.perf_counter()
        found = ResultCache(directory).get_many(probe)
        batched_seconds = time.perf_counter() - start
        assert len(found) == num_entries

        per_key = ResultCache(directory)
        start = time.perf_counter()
        hits = sum(per_key.get(key) is not MISS for key in probe)
        per_key_seconds = time.perf_counter() - start
        assert hits == num_entries
        return {
            "probed_keys": len(probe),
            "batched_keys_per_second": round(len(probe) / batched_seconds),
            "per_key_keys_per_second": round(len(probe) / per_key_seconds),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    bench = Bench(__doc__, "BENCH_runtime.json")
    bench.parser.add_argument(
        "--budget", type=float, default=2e6,
        help="per-layer dense-MAC budget (default: the benchmark harness's 2e6)",
    )
    bench.parser.add_argument(
        "--max-layers", type=int, default=8,
        help="sampled layers per model (default: the benchmark harness's 8)",
    )
    bench.parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: the committed record's width in "
        "--check mode, else os.cpu_count(), at least 2 so the parallel path "
        "is exercised)",
    )
    args = bench.parse(argv)
    workers = bench.workers(args.workers)

    runs = [
        run_suite(args.budget, args.max_layers, workers)
        for _ in range(max(1, args.repeats))
    ]
    counts = {(executed, stored) for _seconds, executed, stored in runs}
    assert len(counts) == 1, f"cold runs disagree on their work counts: {counts}"
    executed, stored = counts.pop()
    record: dict[str, object] = {
        "suite": list(SUITE),
        "max_dense_macs": args.budget,
        "max_layers_per_model": args.max_layers,
        "workers": workers,
        "cache": "cold (fresh directory per run)",
        "repeats": args.repeats,
        "seconds": round(min(seconds for seconds, _e, _s in runs), 3),
        "jobs_executed": executed,
        "engine_runs_stored": stored,
        "cache_scan": bench_cache_scan(),
    }
    for key in ("seconds", "jobs_executed", "engine_runs_stored", "cache_scan"):
        print(f"{key:18s} {record[key]}", file=sys.stderr)
    return bench.finish(
        record, {"jobs_executed": "exact", "engine_runs_stored": "exact"}
    )


if __name__ == "__main__":
    raise SystemExit(main())
