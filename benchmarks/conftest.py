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
* ``REPRO_WORKERS`` — process-pool width; ``REPRO_WORKERS=1`` runs the
  serial executor under the local pool (see :mod:`repro.runtime.runner`).
* ``REPRO_CACHE_DIR`` / ``REPRO_CACHE=0`` — result-cache directory / disable
  the persistent cache (see :mod:`repro.runtime.cache`).
"""

from __future__ import annotations

import pytest

from repro import knobs
from repro.api import Session
from repro.experiments import default_settings
from repro.runtime import BatchRunner


def _knob_or(name: str, default):
    """A registered knob's value, or ``default`` when it is unset or empty."""
    value = knobs.get(name)
    return default if value is None else value


#: Defaults tuned so the whole benchmark suite completes in a few minutes.
_BENCH_MAC_BUDGET = _knob_or("REPRO_MAX_DENSE_MACS", 2e6)
_BENCH_MAX_LAYERS = _knob_or("REPRO_MAX_LAYERS", 8)


@pytest.fixture(scope="session")
def settings():
    """Experiment settings shared by every benchmark in the session."""
    if knobs.get("REPRO_FULL_SCALE"):
        return default_settings(max_layers_per_model=_BENCH_MAX_LAYERS)
    return default_settings(
        max_dense_macs=_BENCH_MAC_BUDGET, max_layers_per_model=_BENCH_MAX_LAYERS
    )


#: Where the session's runner is kept for the terminal summary.
_RUNNER = pytest.StashKey[BatchRunner]()


@pytest.fixture(scope="session")
def session(settings, request):
    """The shared :class:`repro.api.Session` every benchmark submits through.

    Backed by one environment-configured runner for the pytest session, so
    the end-to-end and layer-wise grids run (at most) once per session and
    each figure benchmark only slices rows out of the memoized results.
    """
    runner = request.config.stash[_RUNNER] = BatchRunner()
    return Session(settings, runner=runner)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Report what the simulation runtime did for this benchmark session."""
    runner = config.stash.get(_RUNNER, None)
    if runner is None or runner.stats.submitted == 0:
        return
    stats = runner.stats
    terminalreporter.write_sep("-", "repro.runtime job summary")
    terminalreporter.write_line(
        "   ".join(f"{name}: {value}" for name, value in stats.as_row().items())
    )
    executor = (
        f"parallel x{runner.max_workers} ({runner.pool_mode} pool)"
        if runner.parallel
        else "serial"
    )
    terminalreporter.write_line(f"executor: {executor}")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations (not microbenchmarks), so a
    single round is both sufficient and necessary to keep the suite fast.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
