"""Timed engine-backend benchmark: fig12 + fig15 under both backends.

Runs the figure suite cold (no result cache, serial executor, fresh process
memos per backend) with the reference and the vectorized engine backend,
records per-backend wall-clock and the speedup in ``BENCH_engine.json``, and
— in ``--check`` mode — fails when the vectorized backend has regressed by
more than 20% against the committed baseline *speedup* (a machine-relative
quantity, so the check is portable across hosts of different absolute speed).

Usage::

    PYTHONPATH=src python scripts/bench_engine.py                   # record
    PYTHONPATH=src python scripts/bench_engine.py --check BENCH_engine.json
"""

from __future__ import annotations

import sys
import time

from benchgate import Bench

SUITE = ("fig12", "fig15")


def run_suite(engine: str, budget: float, max_layers: int) -> float:
    """Cold wall-clock seconds of the figure suite under one backend."""
    from repro.api import Session
    from repro.experiments.settings import default_settings
    from repro.runtime import BatchRunner
    from repro.workloads.layers import _materialize_cached

    # Both backends run in this process; drop the operand memo so neither
    # inherits warmed layers from the other and the comparison stays cold.
    _materialize_cached.cache_clear()
    settings = default_settings(
        max_dense_macs=budget, max_layers_per_model=max_layers, engine=engine
    )
    session = Session(settings, runner=BatchRunner(parallel=False, cache=None))
    start = time.perf_counter()
    for figure in SUITE:
        session.figure(figure)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    bench = Bench(__doc__, "BENCH_engine.json")
    bench.parser.add_argument(
        "--budget", type=float, default=2e6,
        help="per-layer dense-MAC budget (default: the benchmark harness's 2e6)",
    )
    bench.parser.add_argument(
        "--max-layers", type=int, default=8,
        help="sampled layers per model (default: the benchmark harness's 8)",
    )
    args = bench.parse(argv)

    record = {
        "suite": list(SUITE),
        "max_dense_macs": args.budget,
        "max_layers_per_model": args.max_layers,
        "executor": "serial",
        "cache": "cold (disabled)",
        "repeats": args.repeats,
    }
    for engine in ("reference", "vectorized"):
        seconds = min(
            run_suite(engine, args.budget, args.max_layers)
            for _ in range(max(1, args.repeats))
        )
        record[f"{engine}_seconds"] = round(seconds, 3)
        print(f"{engine:10s} {seconds:8.3f} s (best of {args.repeats})", file=sys.stderr)
    record["speedup"] = round(
        record["reference_seconds"] / record["vectorized_seconds"], 3
    )
    print(f"speedup    {record['speedup']:8.3f} x", file=sys.stderr)
    return bench.finish(record, {"speedup": "higher"})


if __name__ == "__main__":
    raise SystemExit(main())
