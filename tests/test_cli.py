"""Tests of the ``python -m repro`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runtime import ResultCache

#: Tiny settings flags shared by the simulation-backed CLI invocations.
MICRO = ["--max-dense-macs", "5e4", "--max-layers", "1", "--serial"]


class TestFigureCommand:
    def test_outputs_parseable_json(self, tmp_path, capsys):
        rc = main(["figure", "table8", "--no-cache", *MICRO])
        assert rc == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["figure"] == "table8"
        assert payload["kind"] == "figure"
        assert payload["rows"]
        assert "jobs:" in err  # counters go to stderr, not into the payload

    def test_second_run_is_cache_served_and_byte_identical(self, tmp_path, capsys):
        args = ["figure", "fig12", "--cache-dir", str(tmp_path / "cache"), *MICRO]
        first_path = tmp_path / "first.json"
        second_path = tmp_path / "second.json"
        assert main([*args, "-o", str(first_path)]) == 0
        assert "executed=0" not in capsys.readouterr().err
        assert main([*args, "-o", str(second_path)]) == 0
        assert "executed=0" in capsys.readouterr().err
        assert first_path.read_bytes() == second_path.read_bytes()

    def test_table_rendering(self, capsys):
        rc = main(["figure", "table3", "--table", "--no-cache"])
        assert rc == 0
        out, _ = capsys.readouterr()
        assert "Table 3" in out and "Gustavson" in out

    def test_unknown_figure_fails_cleanly(self, capsys):
        assert main(["figure", "fig99", "--no-cache"]) == 2
        assert "known figures" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_with_overrides(self, capsys):
        rc = main([
            "sweep", "--layers", "A2", "--designs", "GAMMA-like",
            "--scale", "0.05", "--set", "num_multipliers=16",
            "--no-cache", "--serial",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep"
        assert payload["spec"]["config_overrides"] == [["num_multipliers", 16]]
        (row,) = payload["rows"]
        assert row["design"] == "GAMMA-like" and row["cycles"] > 0

    def test_bad_override_value_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--layers", "A2", "--set", "num_multipliers=lots"])

    def test_unknown_override_key_fails_cleanly(self, capsys):
        rc = main(["sweep", "--layers", "A2", "--set", "bogus_field=1", "--no-cache"])
        assert rc == 2
        assert "unknown config override" in capsys.readouterr().err


class TestCacheCommand:
    def _warm_cache(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        for index in range(3):
            cache.put(f"{index:02d}" * 32, {"payload": "x" * 2000, "index": index})
        return cache

    def test_stats(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        rc = main(["cache", "--cache-dir", str(cache.directory), "stats"])
        assert rc == 0
        out, _ = capsys.readouterr()
        assert "entries         : 3" in out

    def test_clear(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        rc = main(["cache", "--cache-dir", str(cache.directory), "clear"])
        assert rc == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert cache.entry_count() == 0

    def test_prune(self, tmp_path, capsys):
        cache = self._warm_cache(tmp_path)
        entry_bytes = cache.size_bytes() // 3
        rc = main([
            "cache", "--cache-dir", str(cache.directory),
            "prune", "--max-size-mb", str(entry_bytes / 1e6),
        ])
        assert rc == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert cache.entry_count() == 1


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out, _ = capsys.readouterr()
        for token in ("fig12", "SqueezeNet", "MB215", "Flexagon", "CPU-MKL"):
            assert token in out

    def test_lists_one_section(self, capsys):
        assert main(["list", "figures"]) == 0
        out, _ = capsys.readouterr()
        assert "fig12" in out and "SqueezeNet" not in out
