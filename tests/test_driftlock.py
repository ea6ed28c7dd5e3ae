"""The drift lock: a pinned result digest moves only with a cache schema bump.

``scripts/driftlock.py`` compares the ``RESULTS``, ``DESIGNS`` and ``DSE``
pins of ``tests/test_result_lock.py`` and ``CACHE_SCHEMA_VERSION`` at a base
commit with the worktree.  These tests hand its check edited copies of the
two files' texts, so they pin its behaviour without git.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "driftlock", REPO_ROOT / "scripts" / "driftlock.py"
)
driftlock = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(driftlock)

LOCK = (REPO_ROOT / driftlock.LOCK).read_text()
JOBS = (REPO_ROOT / driftlock.JOBS).read_text()


def _first_pin(name: str) -> tuple[str, str]:
    return next(iter(driftlock.literals(LOCK, {name})[name].items()))


def _repinned(name: str, digest: str | None) -> str:
    """The lock text with the first case of ``name`` re-pinned (``None``: removed)."""
    case, old = _first_pin(name)
    line = f'    "{case}": "{old}",\n'
    assert LOCK.count(line) == 1
    return LOCK.replace(line, "" if digest is None else f'    "{case}": "{digest}",\n')


def _bumped(jobs: str) -> str:
    return re.sub(
        r"^CACHE_SCHEMA_VERSION = (\d+)$",
        lambda match: f"CACHE_SCHEMA_VERSION = {int(match.group(1)) + 1}",
        jobs,
        count=1,
        flags=re.M,
    )


def test_the_pins_are_read_from_the_lock_test():
    pins = driftlock.literals(LOCK, set(driftlock.PINS))
    assert sorted(pins) == sorted(driftlock.PINS)
    assert all(pins[name] for name in driftlock.PINS)
    assert driftlock.check(LOCK, JOBS, LOCK, JOBS) == []


def test_a_moved_result_fails_and_names_the_pin_until_the_version_moves():
    case, _ = _first_pin("RESULTS")
    moved = _repinned("RESULTS", "0" * 64)
    failures = driftlock.check(LOCK, JOBS, moved, JOBS)
    assert len(failures) == 1 and failures[0].startswith(f"RESULTS {case}: ")
    assert _bumped(JOBS) != JOBS
    assert driftlock.check(LOCK, JOBS, moved, _bumped(JOBS)) == []


def test_a_vanished_pin_fails_and_a_new_pin_passes():
    case, _ = _first_pin("DESIGNS")
    failures = driftlock.check(LOCK, JOBS, _repinned("DESIGNS", None), JOBS)
    assert failures == [
        f"DESIGNS {case}: pinned {_first_pin('DESIGNS')[1]}, now gone, "
        "CACHE_SCHEMA_VERSION unchanged"
    ]
    base_without_dse_case = _repinned("DSE", None)
    assert driftlock.check(base_without_dse_case, JOBS, LOCK, JOBS) == []


def test_operand_pins_are_not_covered():
    case, old = next(iter(driftlock.literals(LOCK, {"MATRICES"})["MATRICES"].items()))
    rehashed = LOCK.replace(f'"{case}": "{old}"', f'"{case}": "{"0" * 64}"')
    assert rehashed != LOCK
    assert driftlock.check(LOCK, JOBS, rehashed, JOBS) == []
