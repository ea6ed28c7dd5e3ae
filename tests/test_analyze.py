"""Tests of the ``repro.analyze`` static-analysis pass.

Two halves:

* **Golden corpus** — every checker rule must catch its known-bad snippet
  under ``tests/analyze_corpus/`` at the expected site, and the
  ``# repro: allow[rule]`` suppressions must silence exactly their rule.
* **Live tree** — running the real checkers over ``src/repro`` must
  produce nothing beyond the committed baseline (which itself must hold
  no stale entries), and the CLI must agree via its exit code.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import knobs
from repro.analyze import RULES, run_checkers
from repro.analyze.core import load_project, read_baseline

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS = REPO_ROOT / "tests" / "analyze_corpus"
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def corpus_findings():
    project = load_project(
        CORPUS,
        rel_base=CORPUS,
        schema_lock=CORPUS / "analyze" / "schema_lock.json",
    )
    return run_checkers(project)


def _by_context(findings):
    return {(f.rule, f.path, f.context): f for f in findings}


class TestGoldenCorpus:
    """Each rule catches its known-bad snippet at the expected site."""

    EXPECTED = {
        ("determinism", "det_bad.py", "Spec.key->time.time", 8),
        ("determinism", "det_bad.py", "Spec.key->set-iteration", 9),
        ("determinism", "rng_bad.py", "np.random.rand", 7),
        ("determinism", "rng_bad.py", "np.random.default_rng()", 11),
        ("lock-discipline", "locks_bad.py", "Counter.bump->total", 12),
        ("pickle-boundary", "pickle_bad.py", "thaw->pickle.loads", 7),
        ("env-knob", "knob_bad.py", "read_knob->REPRO_SOMETHING", 7),
        ("env-knob", "knob_bad.py", "read_knob_subscript->REPRO_OTHER", 11),
        ("wire-hygiene", "serve/app.py", "route:/v1/undocumented", 12),
        ("wire-hygiene", "repro/metrics/results.py", "schema:result:fields", 10),
        ("bare-except", "except_bad.py", "swallow->except", 7),
        ("bare-except", "except_bad.py", "swallow_broad->except", 14),
    }

    def test_every_expected_violation_fires(self, corpus_findings):
        got = {(f.rule, f.path, f.context, f.line) for f in corpus_findings}
        missing = self.EXPECTED - got
        assert not missing, f"corpus violations not caught: {sorted(missing)}"

    def test_every_rule_is_exercised(self, corpus_findings):
        fired = {f.rule for f in corpus_findings}
        assert fired == set(RULES)

    def test_no_unexpected_findings(self, corpus_findings):
        expected_keys = {(r, p, c) for r, p, c, _l in self.EXPECTED}
        unexpected = set(_by_context(corpus_findings)) - expected_keys
        assert not unexpected, f"unplanned corpus findings: {sorted(unexpected)}"

    def test_allow_comments_suppress(self, corpus_findings):
        assert not [f for f in corpus_findings if f.path == "allow_ok.py"]

    def test_legal_shapes_not_flagged(self, corpus_findings):
        contexts = {f.context for f in corpus_findings}
        # binds-and-uses broad handler passes the bare-except rule,
        assert "rewrap->except" not in contexts
        # a locked access and a _locked-suffixed helper pass lock discipline,
        assert "Counter.bump_safely->total" not in contexts
        assert "Counter._drain_locked->total" not in contexts
        # and an env write stays legal under the knob rule.
        assert "write_knob->REPRO_OTHER" not in contexts


class TestLiveTree:
    """The shipping tree is clean modulo the committed baseline."""

    @pytest.fixture(scope="class")
    def live_findings(self):
        project = load_project(
            SRC,
            readme=REPO_ROOT / "README.md",
            schema_lock=SRC / "analyze" / "schema_lock.json",
        )
        return run_checkers(project)

    def test_zero_new_findings(self, live_findings):
        baseline = read_baseline(REPO_ROOT / "analyze_baseline.txt")
        fresh = [f for f in live_findings if f.identity() not in baseline]
        assert not fresh, "new findings:\n" + "\n".join(
            f.render() for f in fresh
        )

    def test_no_stale_baseline_entries(self, live_findings):
        baseline = read_baseline(REPO_ROOT / "analyze_baseline.txt")
        current = {f.identity() for f in live_findings}
        stale = baseline - current
        assert not stale, f"baseline entries already fixed: {sorted(stale)}"

    def test_cli_check_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analyze", "--check"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestKnobRegistry:
    """The knob registry behind the env-knob rule."""

    def test_every_knob_documented_in_readme(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in knobs.KNOBS:
            assert name in readme, f"{name} missing from README"

    def test_readme_carries_the_generated_knobs_table(self, capsys):
        """``--knobs-table`` output appears verbatim, so a row left over for
        a deleted knob (or a stale doc line) fails here."""
        from repro.analyze.__main__ import main

        assert main(["--knobs-table"]) == 0
        table = capsys.readouterr().out
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert table in readme

    def test_defaults(self, monkeypatch):
        for name in knobs.KNOBS:
            monkeypatch.delenv(name, raising=False)
        assert knobs.get("REPRO_CACHE") is True
        assert knobs.get("REPRO_WORKERS") is None
        assert knobs.get("REPRO_POOL") == "persistent"
        assert knobs.get("REPRO_LEASE_SECONDS") == 30.0
        assert knobs.get("REPRO_MAX_ATTEMPTS") == 5
        assert knobs.get("REPRO_FABRIC_PORT") == 8735
        assert knobs.get("REPRO_FULL_SCALE") is False

    def test_empty_string_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "")
        assert knobs.get("REPRO_POOL") == "persistent"

    def test_parse_errors_name_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            knobs.get("REPRO_WORKERS")
        monkeypatch.setenv("REPRO_LEASE_SECONDS", "-3")
        with pytest.raises(ValueError, match="positive"):
            knobs.get("REPRO_LEASE_SECONDS")

    def test_unregistered_name_is_loud(self):
        with pytest.raises(KeyError):
            knobs.get("REPRO_NOT_A_KNOB")
