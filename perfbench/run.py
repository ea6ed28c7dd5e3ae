"""The repository benchmark: three workloads, one command, medians per run.

Run from the repository root::

    python3 perfbench/run.py --workload figures_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced passes and reports per-layer
self time and exact work counts, plus the tracing overhead.  Report lines go
to standard error; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures_cold", "serve_warm", "dse_fabric")

#: Fewest passes a run takes, however short ``--seconds`` is.
MIN_PASSES = 3
#: Set-ups timed per untraced run, each in a fresh interpreter started between
#: two passes; ``setup_s`` is their median.
SETUP_SAMPLES = 11
#: A percentile needs this many samples beyond it to be reported.
TAIL_SAMPLES = 10
#: Share of the measured time the named stages of a traced run must cover.
COVERAGE_FLOOR = 0.90


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the monotonic clock reading at which set-up "
        "ended as JSON, and exit (one set-up sample of a run)",
    )
    return parser.parse_args(argv)


def monotonic() -> float:
    """A clock every process on the host reads alike, so a parent can time a
    child from spawn to a reading the child reports."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def hermetic_environment(work_root: Path) -> None:
    """Drop every ``REPRO_*`` knob the caller set; keep state in the checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(work_root / "default-cache")
    os.environ["REPRO_QUOTA_DIR"] = str(work_root / "quota")


def peak_rss_mb() -> float:
    """Largest RSS of this process or any child it has waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_sample(args, cpus: set[int]) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    The child starts on ``cpus``, the CPUs this run started with, even when
    the scenario has since pinned this thread to one of them.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        spawned = monotonic()
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.sched_setaffinity(0, pinned)
    try:
        out, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"set-up sample exited {child.returncode}:\n{err[-4000:]}")
    return float(json.loads(out.strip().splitlines()[-1])["ready"]) - spawned


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def serve_figures(passes, connections: int) -> dict[str, float]:
    """Request latency percentiles and throughput over ``serve_warm`` epochs.

    p95 is reported only with at least :data:`TAIL_SAMPLES` samples beyond
    it; otherwise it is 0 and the log line says why.
    """
    latencies = [latency for result in passes for latency in result.latencies]
    busy = sum(result.seconds for result in passes)
    enough = len(latencies) * 0.05 >= TAIL_SAMPLES
    figures = {
        "serve.requests": len(latencies),
        "serve.latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "serve.latency_p95_ms": percentile(latencies, 0.95) * 1e3 if enough else 0.0,
        "serve.throughput_rps": len(latencies) / busy,
    }
    p95 = (f"{figures['serve.latency_p95_ms']:.3f} ms" if enough
           else f"not reported (fewer than {TAIL_SAMPLES * 20} requests)")
    log(f"requests {len(latencies)}  p50 {figures['serve.latency_p50_ms']:.3f} ms"
        f"  p95 {p95}  throughput {figures['serve.throughput_rps']:.2f} req/s"
        f" at {connections} closed-loop connections")
    return figures


def check_passes(passes, label: str) -> tuple[bool, int]:
    """Compare every pass with the first; returns (consistent, failed ops)."""
    first = passes[0]
    consistent = True
    failed = 0
    for number, result in enumerate(passes, 1):
        failed += result.failed
        for note in result.notes:
            log(f"{label} pass {number}: {note}")
        if result.digest != first.digest or result.counts != first.counts:
            log(f"{label} pass {number} disagrees with pass 1: "
                f"{result.digest[:16]} {result.counts}")
            consistent = False
            failed += result.attempted - result.failed
    return consistent, failed


def report_passes(passes, label: str) -> None:
    for number, result in enumerate(passes, 1):
        counts = " ".join(f"{key}={value!r}" for key, value in sorted(result.counts.items()))
        log(f"{label} pass {number}: {result.seconds:.4f} s  {counts}")
    log(f"{label} output sha256 {passes[0].digest}")


def measure_untraced(scenario, args, cpus: set[int]):
    """Passes for ``args.seconds``, with set-up samples spread among them.

    After each pass, set-up samples are taken until their share of
    :data:`SETUP_SAMPLES` keeps pace with the share of the window gone by, so
    they fall in the same stretch of host time as the passes.  Time spent
    sampling is not counted in the window.
    """
    passes, setups = [], []
    begin = time.perf_counter()
    sampling = 0.0
    while True:
        passes.append(scenario.run_pass())
        elapsed = time.perf_counter() - begin - sampling
        due = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * elapsed / args.seconds))
        while len(setups) < due:
            started = time.perf_counter()
            setups.append(setup_sample(args, cpus))
            sampling += time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            return passes, setups


def measure_traced(scenario, seconds: float):
    """Alternate untraced and traced passes; returns both and the recorders."""
    import spans

    plain, traced, recorders = [], [], []
    begin = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - begin < seconds:
        plain.append(scenario.run_pass())
        recorder = spans.Recorder(f"pass-{len(traced) + 1}")
        with spans.installed(recorder):
            traced.append(scenario.run_pass(recorder=recorder))
        recorders.append(recorder)
    return plain, traced, recorders


def traced_metrics(args, workers, plain, traced, recorders) -> dict[str, dict]:
    """Per-layer metrics of a traced run; writes its spans into the checkout."""
    import spans

    reports = [spans.layer_report(recorder, result) for recorder, result in zip(recorders, traced)]
    extra = serve_figures(plain, workers) if args.workload == "serve_warm" else {}
    metrics = spans.summarize(plain, traced, reports, extra, log)
    coverage = metrics["trace.coverage"]["value"]
    if coverage < COVERAGE_FLOOR:
        log(f"WARNING: named stages cover only {coverage:.1%} of measured time "
            f"(floor {COVERAGE_FLOOR:.0%})")
    out = ROOT / ".perfbench-work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.write(recorders, out)
    log(f"spans of {len(recorders)} traced passes written to {out.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no repro sources under {ROOT / 'src'}; run from a repository checkout")
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2
    # Stopped from outside, still shut down the pool, server and worker.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".perfbench-work" / str(os.getpid())
    hermetic_environment(work_root)

    import scenarios

    work = scenarios.WorkDir(work_root)
    cpus = os.sched_getaffinity(0)
    workers = max(1, len(cpus))
    serial = bool(args.trace) and args.workload == "figures_cold"
    scenario = scenarios.SCENARIOS[args.workload](work, args.seed, workers, serial)
    try:
        scenario.setup()
        if args.setup_only:
            print(json.dumps({"ready": monotonic()}))
            return 0
        log(f"{args.workload}: seed {args.seed}, nproc {workers}")
        if args.trace:
            if serial:
                log("figures_cold traced run: passes run serially so that jobs "
                    "executing in pool workers are seen by the trace")
            plain, traced, recorders = measure_traced(scenario, args.seconds)
            passes = plain + traced
        else:
            passes, setups = measure_untraced(scenario, args, cpus)
            log(f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    except Exception:  # a broken program must still end the run cleanly
        traceback.print_exc()
        if args.setup_only:
            return 1
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        scenario.close()
        work.remove()

    report_passes(passes, args.workload)
    consistent, failed = check_passes(passes, args.workload)
    attempted = sum(result.attempted for result in passes)
    log(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    if args.trace:
        metrics = traced_metrics(args, workers, plain, traced, recorders)
    else:
        if args.workload == "serve_warm":
            serve_figures(passes, workers)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r.seconds for r in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
