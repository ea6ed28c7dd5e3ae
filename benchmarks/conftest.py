"""Shared fixtures for the benchmark harness.

Every benchmark drives the public :class:`repro.api.Session` facade over the
same :class:`ExperimentSettings`: the expensive layer-wise and end-to-end
grids are executed once per pytest session (fanned out over a process pool),
persisted in the runtime's on-disk result cache, and the individual benchmark
files only ask the session for their figure's rows.  A second benchmark
invocation with the same settings therefore re-simulates nothing — it is
answered entirely from the cache (run ``python -m repro cache stats`` to
inspect it).

Environment knobs:

* ``REPRO_FULL_SCALE=1`` — run the full-size (unscaled) layers.  Only do this
  with a lot of patience; the default scaled runs preserve the trends.
* ``REPRO_MAX_DENSE_MACS`` — override the per-layer dense-MAC budget used to
  pick the scale factor (default used by the benches: 2e6).
* ``REPRO_MAX_LAYERS`` — cap on simulated layers per model (default 8).
* ``REPRO_WORKERS`` / ``REPRO_PARALLEL=0`` — process-pool width / force the
  serial executor (see :mod:`repro.runtime.runner`).
* ``REPRO_CACHE_DIR`` / ``REPRO_CACHE=0`` — result-cache directory / disable
  the persistent cache (see :mod:`repro.runtime.cache`).
"""

from __future__ import annotations

import os

import pytest

from repro.api import Session
from repro.experiments import default_settings
from repro.runtime import default_runner

#: Defaults tuned so the whole benchmark suite completes in a few minutes.
_BENCH_MAC_BUDGET = float(os.environ.get("REPRO_MAX_DENSE_MACS", 2e6))
_BENCH_MAX_LAYERS = int(os.environ.get("REPRO_MAX_LAYERS", 8))


@pytest.fixture(scope="session")
def settings():
    """Experiment settings shared by every benchmark in the session."""
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return default_settings(max_layers_per_model=_BENCH_MAX_LAYERS)
    return default_settings(
        max_dense_macs=_BENCH_MAC_BUDGET, max_layers_per_model=_BENCH_MAX_LAYERS
    )


@pytest.fixture(scope="session")
def session(settings):
    """The shared :class:`repro.api.Session` every benchmark submits through.

    Backed by the process-wide runner, so the end-to-end and layer-wise grids
    run (at most) once per pytest session and each figure benchmark only
    slices rows out of the memoized results.
    """
    return Session(settings, runner=default_runner())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Report what the simulation runtime did for this benchmark session."""
    from repro.engine_vec import resolve_engine_backend

    runner = default_runner()
    stats = runner.stats
    if stats.submitted == 0:
        return
    terminalreporter.write_sep("-", "repro.runtime job summary")
    terminalreporter.write_line(
        "   ".join(f"{name}: {value}" for name, value in stats.as_row().items())
    )
    executor = (
        f"parallel x{runner.max_workers} ({runner.pool_mode} pool)"
        if runner.parallel
        else "serial"
    )
    terminalreporter.write_line(
        f"executor: {executor}"
        # BENCH trajectories must be attributable to the backend that
        # produced them (REPRO_ENGINE; both backends are bit-equivalent).
        + f"   engine backend: {resolve_engine_backend()}"
    )


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations (not microbenchmarks), so a
    single round is both sufficient and necessary to keep the suite fast.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
