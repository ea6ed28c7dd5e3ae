"""Cross-process reproducibility of the synthetic sparse generators.

The whole caching and distribution story assumes that a seed fully
determines a generated matrix: the same ``(shape, density, pattern,
seed)`` must yield bit-identical pointers and indices in *any*
process, or cache keys computed on one host would describe different
inputs on another.  The static analyzer bans the global numpy RNG for
exactly this reason; these tests pin the behavioural half of the
contract.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sparse.generate import SparsityPattern, random_sparse

REPO_ROOT = Path(__file__).resolve().parents[1]

_DIGEST_SNIPPET = """
import hashlib
import sys

from repro.sparse.generate import SparsityPattern, random_sparse

for pattern in SparsityPattern:
    m = random_sparse(64, 48, 0.2, pattern=pattern, seed=1234)
    h = hashlib.sha256()
    for arr in (m.pointers, m.indices):
        h.update(arr.tobytes())
    sys.stdout.write(f"{pattern.value}:{h.hexdigest()}\\n")
"""


def _spawn_digests() -> str:
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_SNIPPET],
        cwd=REPO_ROOT,
        # The caller's environment, so PYTHONDONTWRITEBYTECODE reaches the child.
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_two_processes_generate_identical_matrices():
    first = _spawn_digests()
    second = _spawn_digests()
    assert first == second
    assert len(first.strip().splitlines()) == len(SparsityPattern)


def test_subprocess_matches_in_process():
    lines = dict(
        line.split(":", 1) for line in _spawn_digests().strip().splitlines()
    )
    for pattern in SparsityPattern:
        m = random_sparse(64, 48, 0.2, pattern=pattern, seed=1234)
        h = hashlib.sha256()
        for arr in (m.pointers, m.indices):
            h.update(arr.tobytes())
        assert lines[pattern.value] == h.hexdigest(), pattern


@pytest.mark.parametrize("pattern", list(SparsityPattern))
def test_same_seed_same_matrix(pattern):
    a = random_sparse(32, 32, 0.3, pattern=pattern, seed=7)
    b = random_sparse(32, 32, 0.3, pattern=pattern, seed=7)
    np.testing.assert_array_equal(a.pointers, b.pointers)
    np.testing.assert_array_equal(a.indices, b.indices)


@pytest.mark.parametrize("pattern", list(SparsityPattern))
def test_different_seeds_differ(pattern):
    a = random_sparse(32, 32, 0.3, pattern=pattern, seed=7)
    b = random_sparse(32, 32, 0.3, pattern=pattern, seed=8)
    same = np.array_equal(a.pointers, b.pointers) and np.array_equal(a.indices, b.indices)
    assert not same, f"seeds 7 and 8 collided for {pattern}"
