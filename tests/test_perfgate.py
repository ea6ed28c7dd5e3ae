"""The exact-count gate over the repository benchmark's traced runs.

``scripts/perfgate.py`` checks the committed ``BENCH_counts.json`` against
the last JSON line of one traced ``perfbench/run.py`` run per workload.  These
tests feed it synthetic run outputs built from the record itself, so they pin
the gate's behaviour without running the benchmark.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
RECORD = REPO_ROOT / "BENCH_counts.json"

_spec = importlib.util.spec_from_file_location(
    "perfgate", REPO_ROOT / "scripts" / "perfgate.py"
)
perfgate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfgate)


def _record() -> dict:
    return json.loads(RECORD.read_text())


def _runs_matching(record: dict) -> dict[str, dict]:
    """One passing run result per workload, carrying exactly the record's counts."""
    return {
        name: {
            "correct": True,
            "attempted": 4,
            "failed": 0,
            "metrics": {
                "trace.coverage": {"value": 0.95, "unit": "fraction"},
                **{metric: {"value": value, "unit": "count"} for metric, value in counts.items()},
            },
        }
        for name, counts in record["workloads"].items()
    }


def _write_outputs(tmp_path: Path, runs: dict[str, dict]) -> list[str]:
    """``perfbench-<workload>.out`` files whose last line is each run's result."""
    paths = []
    for name, run in runs.items():
        path = tmp_path / f"perfbench-{name}.out"
        path.write_text("[perfbench] report lines go to stderr\n" + json.dumps(run) + "\n")
        paths.append(str(path))
    return paths


def test_record_gates_benchmark_metrics_of_every_workload():
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    record = _record()
    assert set(record["workloads"]) == {w["name"] for w in benchmark["workloads"]}
    for name, counts in record["workloads"].items():
        assert counts, name
        for metric in counts:
            assert metric in units, (name, metric)
            assert units[metric] in ("count", "cycles"), (name, metric)


def test_runs_equal_to_the_record_pass(tmp_path, capsys):
    outputs = _write_outputs(tmp_path, _runs_matching(_record()))
    assert perfgate.main([str(RECORD), *outputs]) == 0
    assert "3 runs match" in capsys.readouterr().out


def _count_off_by_one(run, metric):
    run["metrics"][metric]["value"] += 1
    return metric


def _count_missing(run, metric):
    del run["metrics"][metric]
    return metric


def _incorrect(run, _metric):
    run["correct"] = False
    return "correct"


def _one_failed(run, _metric):
    run["failed"] = 1
    return "failed"


def _low_coverage(run, _metric):
    run["metrics"]["trace.coverage"]["value"] = 0.89
    return "trace.coverage"


@pytest.mark.parametrize("workload", ["figures_cold", "serve_warm", "dse_fabric"])
@pytest.mark.parametrize(
    "mutate",
    [_count_off_by_one, _count_missing, _incorrect, _one_failed, _low_coverage],
)
def test_each_mismatch_fails_and_names_workload_and_metric(
    tmp_path, capsys, workload, mutate
):
    record = _record()
    runs = _runs_matching(record)
    named = mutate(runs[workload], "runtime.engine_runs_executed")
    assert perfgate.main([str(RECORD), *_write_outputs(tmp_path, runs)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"{workload} {named}: committed "), lines


def test_missing_workload_fails(tmp_path, capsys):
    runs = _runs_matching(_record())
    del runs["serve_warm"]
    assert perfgate.main([str(RECORD), *_write_outputs(tmp_path, runs)]) == 1
    assert capsys.readouterr().out.startswith("serve_warm run: committed 1, measured missing")


def test_run_without_result_line_fails(tmp_path, capsys):
    outputs = _write_outputs(tmp_path, _runs_matching(_record()))
    Path(outputs[0]).write_text("Traceback (most recent call last):\n")
    assert perfgate.main([str(RECORD), *outputs]) == 1
    assert "correct: committed true, measured missing" in capsys.readouterr().out


def test_write_rewrites_counts_only_from_passing_runs(tmp_path):
    record = tmp_path / "counts.json"
    record.write_text(RECORD.read_text())
    runs = _runs_matching(_record())
    runs["figures_cold"]["metrics"]["accelerators.engine.calls"]["value"] = 720

    broken = copy.deepcopy(runs)
    broken["dse_fabric"]["failed"] = 1
    assert perfgate.main(["--write", str(record), *_write_outputs(tmp_path, broken)]) == 1
    assert record.read_text() == RECORD.read_text()

    assert perfgate.main(["--write", str(record), *_write_outputs(tmp_path, runs)]) == 0
    written = json.loads(record.read_text())
    assert written["workloads"]["figures_cold"]["accelerators.engine.calls"] == 720
    assert perfgate.main([str(record), *_write_outputs(tmp_path, runs)]) == 0
