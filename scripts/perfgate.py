"""Gate the repository benchmark's traced runs on exact work counts.

    python3 scripts/perfgate.py [--write] BENCH_counts.json perfbench-*.out

Each ``perfbench-<workload>.out`` is the standard output of ``perfbench/run.py
--workload <workload> --trace 1``; its last line is the run's JSON result.  Each
workload in the record needs a correct run with no failed operation,
``trace.coverage`` >= 0.9 and every committed count exactly; each mismatch
prints one line and the exit status is 1.  ``--write`` rewrites the record's
counts from the runs, so an intended change of work is a reviewed diff.
"""

import argparse
import json
import sys
from pathlib import Path

COVERAGE_FLOOR = 0.9
MISSING = "missing"


def load_runs(paths):
    """Workload name -> the JSON result on the last line of its run's output."""
    runs = {}
    for path in map(Path, paths):
        last = (path.read_text().splitlines() or [""])[-1]
        # A run that ended without its result line reads as an empty result.
        runs[path.stem.removeprefix("perfbench-")] = json.loads(last) if last[:1] == "{" else {}
    return runs


def measured(run, metric):
    return run.get("metrics", {}).get(metric, {}).get("value", MISSING)


def check(record, runs):
    """One ``workload metric: committed X, measured Y`` line per failure."""
    failures = []
    for name, counts in record["workloads"].items():
        def fail(metric, committed, value):
            failures.append(f"{name} {metric}: committed {committed}, measured {value}")

        run = runs.get(name)
        if run is None:
            fail("run", 1, MISSING)
            continue
        if run.get("correct") is not True:
            fail("correct", "true", run.get("correct", MISSING))
        if run.get("failed") != 0:
            fail("failed", 0, run.get("failed", MISSING))
        coverage = measured(run, "trace.coverage")
        if coverage == MISSING or coverage < COVERAGE_FLOOR:
            fail("trace.coverage", f">= {COVERAGE_FLOOR}", coverage)
        for metric, committed in counts.items():
            if measured(run, metric) != committed:
                fail(metric, committed, measured(run, metric))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the counts from the runs")
    parser.add_argument("record", type=Path)
    parser.add_argument("outputs", nargs="+")
    args = parser.parse_args(argv)
    record = json.loads(args.record.read_text())
    runs = load_runs(args.outputs)
    if args.write:  # a count no run reports keeps its committed value, and fails
        for name, counts in record["workloads"].items():
            fresh = {metric: measured(runs.get(name, {}), metric) for metric in counts}
            counts.update((metric, value) for metric, value in fresh.items() if value != MISSING)
    failures = check(record, runs)
    print("\n".join(failures) or f"perfgate: {len(runs)} runs match {args.record}")
    if args.write and not failures:
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
