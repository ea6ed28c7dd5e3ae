"""Timed DSE-driver benchmark: campaign throughput over a 64-point grid.

Registers a bench-only synthetic workload set (8 transformer/GNN shapes),
crosses it with 8 built-in design points and measures the campaign twice
over one result cache:

* **cold** — every simulation executes (engine-dominated),
* **warm** — every simulation answers from the cache, so the measured time
  is pure DSE-driver overhead: spec compilation, campaign/report keying,
  the cache scan and the Pareto collation.

Both are recorded as points/second in ``BENCH_dse.json``.  The regression
gate is the **warm speedup** (warm over cold throughput): a machine-relative
quantity, so the check travels across hosts of different absolute speed.
A driver regression (slower keying, compilation or collation) drags warm
throughput down while barely moving the engine-bound cold number, which is
exactly what collapses the ratio.  ``--check`` fails when the measured
speedup drops below 80% of the committed baseline's.

Usage::

    PYTHONPATH=src python scripts/bench_dse.py                 # record
    PYTHONPATH=src python scripts/bench_dse.py --check BENCH_dse.json
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchgate import Bench  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.dse.designs import default_design_points  # noqa: E402
from repro.dse.explore import DseSpec  # noqa: E402
from repro.dse.workloads import (  # noqa: E402
    gnn_adjacency,
    register_workload,
    transformer_pruning,
)
from repro.experiments.settings import default_settings  # noqa: E402
from repro.runtime import BatchRunner, ResultCache  # noqa: E402

#: Grid edge sizes: 8 workloads x 8 design points = 64 campaign points.
NUM_WORKLOADS = 8
NUM_DESIGNS = 8


def bench_spec() -> DseSpec:
    """The 64-point campaign: bench-only workloads x built-in designs.

    The workload set spans both synthetic families with varied shapes and
    sparsities so compile/keying cost is representative; registration is
    process-local and idempotent (equal re-registration is a no-op).
    """
    names = []
    for index in range(NUM_WORKLOADS // 2):
        workload = transformer_pruning(
            f"bench-xf-{index}",
            seq_len=128 + 64 * index,
            weight_sparsity=0.70 + 0.05 * index,
        )
        names.append(register_workload(workload).name)
    for index in range(NUM_WORKLOADS // 2):
        workload = gnn_adjacency(
            f"bench-gnn-{index}",
            nodes=1024 + 512 * index,
            avg_degree=4.0 + 2.0 * index,
        )
        names.append(register_workload(workload).name)
    designs = default_design_points()[:NUM_DESIGNS]
    return DseSpec(workloads=tuple(names), designs=designs)


def measure(budget: float, workers: int) -> dict[str, float]:
    """Cold + warm campaign throughput (points/second) over one fresh cache."""
    spec = bench_spec()
    points = len(spec.workloads) * len(spec.designs)
    settings = default_settings(max_dense_macs=budget, max_layers_per_model=1)
    directory = tempfile.mkdtemp(prefix="bench-dse-cache-")
    try:
        timings: dict[str, float] = {}
        # One cold pass, then the warm replay timed as the best of three:
        # the warm window is milliseconds, so a single stolen timeslice
        # would otherwise dominate the ratio the regression gate watches.
        for mode, rounds in (("cold", 1), ("warm", 3)):
            seconds = float("inf")
            for _ in range(rounds):
                session = Session(
                    settings,
                    runner=BatchRunner(
                        parallel=True, max_workers=workers, cache=ResultCache(directory)
                    ),
                )
                start = time.perf_counter()
                session.dse(spec)
                seconds = min(seconds, time.perf_counter() - start)
                executed = session.runner.stats.executed
                assert executed == (points if mode == "cold" else 0), (mode, executed)
            timings[mode] = seconds
        return {
            "points": points,
            "cold_points_per_second": round(points / timings["cold"], 2),
            "warm_points_per_second": round(points / timings["warm"], 2),
            "warm_speedup": round(timings["cold"] / timings["warm"], 3),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    bench = Bench(__doc__, "BENCH_dse.json")
    bench.parser.add_argument(
        "--budget", type=float, default=5e4,
        help="per-layer dense-MAC budget (default 5e4: the micro scale that "
        "keeps 64 cold simulations inside a CI minute)",
    )
    bench.parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: the committed record's width in "
        "--check mode so the speedup compares like for like, else "
        "os.cpu_count(), at least 2)",
    )
    args = bench.parse(argv)
    # Cold throughput scales with the pool, so a wider host would otherwise
    # shrink the ratio.
    workers = bench.workers(args.workers)

    best: dict[str, float] | None = None
    for _ in range(max(1, args.repeats)):
        measured = measure(args.budget, workers)
        if best is None or measured["warm_speedup"] > best["warm_speedup"]:
            best = measured
    assert best is not None
    record: dict[str, object] = {
        "max_dense_macs": args.budget,
        "workers": workers,
        "repeats": args.repeats,
        **best,
    }
    for key in ("points", "cold_points_per_second", "warm_points_per_second",
                "warm_speedup"):
        print(f"{key:24s} {record[key]}", file=sys.stderr)
    return bench.finish(record, {"warm_speedup": "higher"})


if __name__ == "__main__":
    raise SystemExit(main())
