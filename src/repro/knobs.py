"""Central registry of the ``REPRO_*`` environment knobs.

Every environment variable the package reads is declared here exactly once:
its name, default, parser and a one-line description.  Call sites go through
:func:`get` (or :func:`raw`) instead of touching ``os.environ`` directly —
the ``env-knob`` rule of ``python -m repro.analyze`` enforces that — so the
full knob surface is discoverable in one place, the README's knobs table can
be checked against it, and a typo'd variable name fails loudly here instead
of silently reading nothing.

Semantics shared by every knob:

* an **unset or empty** variable falls back to the registered default
  (``None`` when the knob has no default — the caller decides);
* parsers validate eagerly and raise :class:`ValueError` with the knob name
  in the message, so a bad value fails at configuration time, not mid-sweep.

Writing knobs (e.g. ``os.environ.setdefault`` in the CLI and test
bootstrap) stays with ``os.environ`` — the registry centralises *reads*.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

#: Valid values of the ``REPRO_POOL`` knob (the pool re-exports this).
POOL_MODES = ("persistent", "remote")


@dataclass(frozen=True)
class Knob:
    """One declared environment knob."""

    #: Environment variable name (``REPRO_*``).
    name: str
    #: Raw default applied when the variable is unset or empty (``None``:
    #: no default; :func:`get` returns ``None`` and the caller decides).
    default: str | None
    #: Parser from the raw string to the typed value (``None``: plain str).
    parse: Callable[[str], object] | None
    #: One-line description (the README knobs table is checked against it).
    doc: str


def _flag(raw: str) -> bool:
    """The package's boolean-knob convention: everything but ``"0"`` is on."""
    return raw != "0"


def _on_flag(raw: str) -> bool:
    """Opt-in convention for off-by-default knobs: only ``"1"`` enables."""
    return raw == "1"


def _choice(name: str, choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {raw!r}")
        return raw

    return parse


def _integer(name: str, minimum: int | None = None, floor: int | None = None):
    """Integer parser; ``minimum`` rejects, ``floor`` silently clamps."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be at least {minimum}")
        if floor is not None:
            value = max(floor, value)
        return value

    return parse


def _positive_float(name: str) -> Callable[[str], float]:
    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{name} must be a number, got {raw!r}") from None
        if value <= 0:
            raise ValueError(f"{name} must be positive")
        return value

    return parse


def _float(name: str) -> Callable[[str], float]:
    def parse(raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"{name} must be a number, got {raw!r}") from None

    return parse


def _knob(name: str, default: str | None, parse, doc: str) -> Knob:
    return Knob(name=name, default=default, parse=parse, doc=doc)


#: The full knob surface, one entry per environment variable.
KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        _knob(
            "REPRO_CACHE_DIR", ".repro_cache", None,
            "Result-cache directory (default `.repro_cache/` under the CWD)",
        ),
        _knob(
            "REPRO_CACHE", "1", _flag,
            "Set to `0` to disable the persistent result cache",
        ),
        _knob(
            "REPRO_WORKERS", None, _integer("REPRO_WORKERS", floor=1),
            "Process-pool width (default: the full `os.cpu_count()`)",
        ),
        _knob(
            "REPRO_POOL", "persistent", _choice("REPRO_POOL", POOL_MODES),
            "Worker pool: `persistent` (default) or `remote`",
        ),
        _knob(
            "REPRO_LEASE_SECONDS", "30",
            _positive_float("REPRO_LEASE_SECONDS"),
            "Fabric work-item lease length in seconds (default 30)",
        ),
        _knob(
            "REPRO_MAX_ATTEMPTS", "5", _integer("REPRO_MAX_ATTEMPTS", minimum=1),
            "Lease grants per fabric work item before the sweep fails (default 5)",
        ),
        _knob(
            "REPRO_FABRIC_HOST", "127.0.0.1", None,
            "Bind address of the standalone fabric listener (default loopback)",
        ),
        _knob(
            "REPRO_FABRIC_PORT", "8735", _integer("REPRO_FABRIC_PORT"),
            "Port of the standalone fabric listener (default 8735; 0 picks free)",
        ),
        _knob(
            "REPRO_FABRIC_LISTEN", "1", _flag,
            "Set to `0` to never auto-start the standalone fabric listener",
        ),
        _knob(
            "REPRO_FABRIC_TOKEN", None, None,
            "Shared fabric secret; required to expose fabric routes beyond loopback",
        ),
        _knob(
            "REPRO_CHAOS", None, None,
            "Worker fault injection: `die_after:N`, `stall` or `corrupt` (tests)",
        ),
        _knob(
            "REPRO_FULL_SCALE", "0", _on_flag,
            "Set to `1` to simulate full-size (unscaled) layers",
        ),
        _knob(
            "REPRO_MAX_DENSE_MACS", None, _float("REPRO_MAX_DENSE_MACS"),
            "Per-layer dense-MAC budget driving the scaling policy",
        ),
        _knob(
            "REPRO_MAX_LAYERS", None, _integer("REPRO_MAX_LAYERS"),
            "Layers sampled per model in the end-to-end sweep",
        ),
        _knob(
            "REPRO_BACKOFF_INITIAL", "0.2",
            _positive_float("REPRO_BACKOFF_INITIAL"),
            "First retry delay in seconds of the shared backoff policy (default 0.2)",
        ),
        _knob(
            "REPRO_BACKOFF_CAP", "30", _positive_float("REPRO_BACKOFF_CAP"),
            "Ceiling in seconds on any backoff delay (default 30)",
        ),
        _knob(
            "REPRO_BACKOFF_MULTIPLIER", "2",
            _positive_float("REPRO_BACKOFF_MULTIPLIER"),
            "Growth factor between consecutive backoff delays (default 2)",
        ),
        _knob(
            "REPRO_BACKOFF_JITTER", "0.1", _float("REPRO_BACKOFF_JITTER"),
            "Jitter fraction applied to backoff delays and periodic polls (default 0.1)",
        ),
        _knob(
            "REPRO_RETRY_ATTEMPTS", "5",
            _integer("REPRO_RETRY_ATTEMPTS", minimum=1),
            "Attempts granted per transient-error retry loop (default 5)",
        ),
        _knob(
            "REPRO_HTTP_TIMEOUT", "60", _positive_float("REPRO_HTTP_TIMEOUT"),
            "Socket timeout in seconds of fabric/sync HTTP clients (default 60)",
        ),
        _knob(
            "REPRO_BREAKER_THRESHOLD", "5",
            _integer("REPRO_BREAKER_THRESHOLD", minimum=1),
            "Consecutive failures that open the worker's circuit breaker (default 5)",
        ),
        _knob(
            "REPRO_BREAKER_RESET", "15", _positive_float("REPRO_BREAKER_RESET"),
            "Seconds an open circuit breaker waits before its half-open probe (default 15)",
        ),
        _knob(
            "REPRO_REQUEST_DEADLINE", "30", _float("REPRO_REQUEST_DEADLINE"),
            "Serve per-request wall deadline in seconds; `0` disables (default 30)",
        ),
        _knob(
            "REPRO_DRAIN_SECONDS", "10", _float("REPRO_DRAIN_SECONDS"),
            "Seconds a shutting-down server waits for in-flight jobs (default 10)",
        ),
        _knob(
            "REPRO_JOB_POOL_DEPTH", "8",
            _integer("REPRO_JOB_POOL_DEPTH", minimum=1),
            "In-flight background jobs admitted before cold requests shed with 503 (default 8)",
        ),
        _knob(
            "REPRO_DSE_MAX_NNZ", "2000000",
            _integer("REPRO_DSE_MAX_NNZ", minimum=1),
            "Max stored entries a MatrixMarket workload file may declare (default 2e6)",
        ),
        _knob(
            "REPRO_DSE_MAX_DIM", "100000",
            _integer("REPRO_DSE_MAX_DIM", minimum=1),
            "Max rows/columns a MatrixMarket workload file may declare (default 1e5)",
        ),
        _knob(
            "REPRO_DSE_DIR", None, None,
            "Directory of `*.mtx` files auto-registered as DSE workloads by stem name",
        ),
        _knob(
            "REPRO_API_KEYS", None, None,
            "Comma-separated `label:sha256hex` API keys; unset leaves the server open",
        ),
        _knob(
            "REPRO_RATE_LIMIT", None, _integer("REPRO_RATE_LIMIT", minimum=1),
            "Figure, sweep and DSE queries allowed per key per window; unset disables it",
        ),
        _knob(
            "REPRO_RATE_WINDOW", "60", _positive_float("REPRO_RATE_WINDOW"),
            "Sliding-window length in seconds behind `REPRO_RATE_LIMIT` (default 60)",
        ),
        _knob(
            "REPRO_COLD_QUOTA", None, _integer("REPRO_COLD_QUOTA", minimum=1),
            "Cold jobs allowed per key per UTC day; unset disables the quota",
        ),
        _knob(
            "REPRO_QUOTA_DIR", ".repro_quota", None,
            "Directory of the on-disk daily cold-quota counters (default `.repro_quota/`)",
        ),
    )
}


def raw(name: str) -> str | None:
    """The raw environment value of one registered knob.

    Returns ``None`` when the variable is unset **or empty** (every reader
    in the package treats an empty string as unset).  Raises ``KeyError``
    for a name that is not registered — an unregistered read is exactly the
    drift this module exists to prevent.
    """
    knob = KNOBS[name]
    return os.environ.get(knob.name) or None


def get(name: str):
    """The parsed value of one registered knob (default applied).

    Unset/empty falls back to the registered default; a knob with no
    default yields ``None``.  Parse failures raise :class:`ValueError`
    naming the knob.
    """
    knob = KNOBS[name]
    text = raw(name)
    if text is None:
        text = knob.default
    if text is None:
        return None
    return knob.parse(text) if knob.parse is not None else text


def table_rows() -> list[tuple[str, str]]:
    """``(name, doc)`` pairs in registry order (the README table source)."""
    return [(knob.name, knob.doc) for knob in KNOBS.values()]
