"""Test-session hygiene for the simulation runtime, plus the shared session.

The runtime's result cache is *input*-addressed, not code-addressed, so a
cache populated by an older build of the simulator would happily answer for
a newer one.  The test suite must never be lied to that way: unless the
caller explicitly pins ``REPRO_CACHE_DIR``, point the cache at a fresh
per-session temporary directory.  Within the session, caching and the
parallel executor stay fully active — the tests exercise them on purpose.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import pytest

if "REPRO_CACHE_DIR" not in os.environ:
    _cache_dir = tempfile.mkdtemp(prefix="repro-test-cache-")
    os.environ["REPRO_CACHE_DIR"] = _cache_dir
    atexit.register(shutil.rmtree, _cache_dir, ignore_errors=True)

# The fabric tests drive workers in-process (or over listeners they bind
# themselves on port 0); a remote-mode runner must never auto-start the
# standalone coordinator listener on the default port during a test run.
os.environ.setdefault("REPRO_FABRIC_LISTEN", "0")


@pytest.fixture(scope="session")
def tiny_session():
    """One :class:`~repro.api.Session` at tiny budgets for the whole run.

    The modules that read the end-to-end and layer-wise grids share it, so
    each grid is computed once per pytest session, in seconds.
    """
    from repro.api import Session
    from repro.experiments import default_settings

    return Session(default_settings(max_dense_macs=2e5, max_layers_per_model=3))
