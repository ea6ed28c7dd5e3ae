"""Fleet-wide resilience policies: deadlines, backoff, budgets, breakers.

Every blocking sleep, retry loop, timeout and give-up threshold in the
serving front-end (:mod:`repro.serve`) and the execution fabric
(:mod:`repro.fabric`) is expressed through this module, so the whole
repository has exactly one place where "how long do we wait, how often do
we retry, when do we give up" is decided — each limit is a named constant
below, or a registered ``REPRO_*`` knob (:mod:`repro.knobs`) where an
operator has a reason to set it, never a number buried in a loop.  The
pieces:

* :class:`Deadline` — a monotonic-clock budget (lease expiry, request
  deadlines, drain windows).
* :class:`Backoff` — capped exponential delay with jitter, reset on
  success (worker claim/upload retry pacing, peer-sync retries).
* :class:`RetryBudget` — a bounded number of attempts (fabric lease
  budgets, transient-error retries).
* :class:`CircuitBreaker` — failure-threshold breaker with a half-open
  probe, so a dead dependency produces quiet waiting instead of a hot
  error loop (the worker's coordinator client).
* :func:`pause` — the package's one blocking sleep, stop-event aware.
* :func:`retry_call` — the canonical retry loop composing all of the
  above.

Everything here is wall-clock plumbing and must never leak into result
bytes: nothing in this module may be called from a cache-key or
wire-serialization path.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro import knobs

#: The shared backoff ladder: first delay and ceiling in seconds, growth
#: factor between delays, and the jitter fraction of delays and polls.
BACKOFF_INITIAL = 0.2
BACKOFF_CAP = 30.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_JITTER = 0.1

#: Attempts one transient-error retry loop is granted.
RETRY_ATTEMPTS = 5

#: Consecutive failures that open the worker's circuit breaker, and the
#: seconds it stays open before its half-open probe.
BREAKER_THRESHOLD = 5
BREAKER_RESET = 15.0


class DeadlineExceeded(TimeoutError):
    """An operation ran past its :class:`Deadline`."""


class Deadline:
    """A point on the monotonic clock that work must finish by.

    ``now`` parameters exist for tests (inject a fake clock); production
    callers omit them and get ``time.monotonic()``.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float, *, now: float | None = None) -> "Deadline":
        base = time.monotonic() if now is None else now
        return cls(base + seconds)

    def remaining(self, *, now: float | None = None) -> float:
        base = time.monotonic() if now is None else now
        return self.expires_at - base

    def expired(self, *, now: float | None = None) -> bool:
        return self.remaining(now=now) <= 0

    def check(self, *, now: float | None = None) -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired(now=now):
            raise DeadlineExceeded("deadline exceeded")


class Backoff:
    """Capped exponential backoff with jitter.

    One instance paces one retry loop (not thread-safe by design): each
    :meth:`next_delay` grows the delay by ``multiplier`` up to ``cap``,
    with a ``jitter`` fraction of uniform noise so a fleet of workers
    hitting the same failure never thunders back in lockstep.
    :meth:`reset` (on success) snaps back to ``initial``.
    """

    def __init__(
        self,
        initial: float = BACKOFF_INITIAL,
        cap: float = BACKOFF_CAP,
        multiplier: float = BACKOFF_MULTIPLIER,
        jitter: float = BACKOFF_JITTER,
        rng: random.Random | None = None,
    ) -> None:
        self.initial = max(0.0, initial)
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self.failures = 0
        self._rng = rng if rng is not None else random.Random()

    def next_delay(self) -> float:
        delay = min(self.cap, self.initial * (self.multiplier ** self.failures))
        self.failures += 1
        return jittered(delay, fraction=self.jitter, rng=self._rng)

    def reset(self) -> None:
        self.failures = 0


def jittered(
    seconds: float,
    *,
    fraction: float = BACKOFF_JITTER,
    rng: random.Random | None = None,
) -> float:
    """``seconds`` +/- a uniform ``fraction`` of itself (never negative).

    The desynchronisation primitive for anything periodic — idle worker
    polls, ``cache pull --interval`` loops — so identical configurations
    spread out instead of stampeding in phase.
    """
    if seconds <= 0 or fraction <= 0:
        return max(0.0, seconds)
    spread = seconds * fraction
    chooser = rng if rng is not None else random
    return max(0.0, seconds + chooser.uniform(-spread, spread))


class RetryBudget:
    """A bounded number of attempts; spend one per try via :meth:`grant`."""

    __slots__ = ("attempts", "spent")

    def __init__(self, attempts: int = RETRY_ATTEMPTS) -> None:
        self.attempts = int(attempts)
        self.spent = 0

    def grant(self) -> bool:
        """Take one attempt; ``False`` once the budget is exhausted."""
        if self.spent >= self.attempts:
            return False
        self.spent += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.attempts


@dataclass(frozen=True)
class LeasePolicy:
    """Lease length + attempt budget governing fabric work items."""

    lease_seconds: float
    max_attempts: int

    def lease_deadline(self, *, now: float | None = None) -> Deadline:
        return Deadline.after(self.lease_seconds, now=now)

    def lease_budget(self) -> RetryBudget:
        return RetryBudget(self.max_attempts)


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-threshold breaker with a timed half-open probe.

    ``threshold`` consecutive failures open the circuit; while open,
    :meth:`allow` refuses attempts until ``reset_seconds`` have passed,
    then admits exactly one probe (half-open).  The probe's
    :meth:`record_success` closes the circuit; its :meth:`record_failure`
    re-opens it for another cooldown.  Thread-safe: the worker's run loop
    and its heartbeat thread may share one breaker.
    """

    def __init__(
        self, threshold: int = BREAKER_THRESHOLD, reset_seconds: float = BREAKER_RESET
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.reset_seconds = reset_seconds
        self._lock = threading.Lock()
        self._failures = 0  # guarded-by: _lock
        self._state = CLOSED  # guarded-by: _lock
        self._retry_at: float | None = None  # guarded-by: _lock
        self.opened_count = 0  # guarded-by: _lock

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self, *, now: float | None = None) -> bool:
        """Whether an attempt may proceed right now.

        While open, flips to half-open (admitting this one probe) once the
        cooldown elapses; a half-open circuit admits no *further* attempts
        until the probe reports back.
        """
        base = time.monotonic() if now is None else now
        with self._lock:
            if self._state == CLOSED:
                return True
            if (
                self._state == OPEN
                and self._retry_at is not None
                and base >= self._retry_at
            ):
                self._state = HALF_OPEN
                return True
            return False

    def cooldown(self, *, now: float | None = None) -> float:
        """Seconds until the next probe is due (0 when attempts may flow)."""
        base = time.monotonic() if now is None else now
        with self._lock:
            if self._state != OPEN or self._retry_at is None:
                return 0.0
            return max(0.0, self._retry_at - base)

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = CLOSED
            self._retry_at = None

    def record_failure(self, *, now: float | None = None) -> bool:
        """Count one failure; ``True`` when this failure *opened* the
        circuit (callers log the transition once, not per failure)."""
        base = time.monotonic() if now is None else now
        with self._lock:
            self._failures += 1
            if self._state == HALF_OPEN or self._failures >= self.threshold:
                newly_open = self._state != OPEN
                self._state = OPEN
                self._retry_at = base + self.reset_seconds
                if newly_open:
                    self.opened_count += 1
                return newly_open
            return False


def pause(delay: float, stop: threading.Event | None = None) -> bool:
    """The package's one blocking sleep.

    Waits ``delay`` seconds — or until ``stop`` is set, which is what makes
    every backoff loop promptly interruptible.  Returns ``True`` when the
    wait ended because ``stop`` fired (callers break their loop on it).
    """
    if stop is not None:
        return stop.wait(max(0.0, delay))
    if delay > 0:
        time.sleep(delay)
    return False


def retry_call(
    fn: Callable[[], object],
    *,
    retryable: tuple[type[BaseException], ...],
    giveup: Callable[[BaseException], bool] | None = None,
    budget: RetryBudget | None = None,
    backoff: Backoff | None = None,
    stop: threading.Event | None = None,
    log: Callable[[str], None] | None = None,
    describe: str = "operation",
):
    """Call ``fn`` until it succeeds or the policy says stop.

    Retries only ``retryable`` exceptions (anything else propagates
    immediately), except those ``giveup`` vetoes — e.g. retry transport
    errors but not HTTP-level rejections.  The attempt count comes from
    ``budget`` (default: :data:`RETRY_ATTEMPTS`), the pacing from
    ``backoff`` (default: the shared ladder), and a set ``stop`` event
    abandons the wait and re-raises the last error.
    """
    budget = budget if budget is not None else RetryBudget()
    backoff = backoff if backoff is not None else Backoff()
    last: BaseException | None = None
    while budget.grant():
        try:
            return fn()
        except retryable as error:
            if giveup is not None and giveup(error):
                raise
            last = error
            if budget.exhausted:
                break
            delay = backoff.next_delay()
            if log is not None:
                log(
                    f"{describe} failed ({type(error).__name__}: {error}); "
                    f"retrying in {delay:.2f}s "
                    f"({budget.spent}/{budget.attempts} attempts)"
                )
            if pause(delay, stop):
                break
    assert last is not None, "retry budget must allow at least one attempt"
    raise last


# ----------------------------------------------------------------------
# Knob-backed policy accessors (the serve/fabric call sites use these)
# ----------------------------------------------------------------------
def http_timeout() -> float:
    """Socket timeout for fabric/sync HTTP clients (``REPRO_HTTP_TIMEOUT``)."""
    return knobs.get("REPRO_HTTP_TIMEOUT")


def request_deadline_seconds() -> float | None:
    """Per-request wall budget of the serve router; ``None`` when disabled."""
    value = knobs.get("REPRO_REQUEST_DEADLINE")
    return value if value > 0 else None


def drain_seconds() -> float:
    """How long a shutting-down server waits for in-flight jobs."""
    return knobs.get("REPRO_DRAIN_SECONDS")
