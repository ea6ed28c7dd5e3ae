"""Unit tests of :mod:`repro.resilience` — the shared policy vocabulary.

Every class takes an injectable clock (``now=``) or RNG, so these tests
are exact: no sleeps, no timing slack, no flakes.  The behavioural
contracts asserted here are the ones the fabric and serve layers build
on — lease expiry boundaries, backoff growth and reset, breaker state
transitions, retry give-up rules.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import resilience
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    Backoff,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LeasePolicy,
    RetryBudget,
    jittered,
    pause,
    retry_call,
)


class TestDeadline:
    def test_remaining_counts_down(self):
        deadline = Deadline.after(10.0, now=100.0)
        assert deadline.remaining(now=104.0) == pytest.approx(6.0)
        assert not deadline.expired(now=109.9)
        assert deadline.expired(now=110.0)

    def test_check_raises_once_spent(self):
        deadline = Deadline.after(1.0, now=0.0)
        deadline.check(now=0.5)
        with pytest.raises(DeadlineExceeded):
            deadline.check(now=1.5)

    def test_wall_clock_default(self):
        # No injected clock: a generous budget is not yet expired.
        assert not Deadline.after(3600.0).expired()


class TestBackoff:
    def test_exponential_growth_to_the_cap(self):
        backoff = Backoff(1.0, cap=4.0, multiplier=2.0, jitter=0.0)
        assert [backoff.next_delay() for _ in range(4)] == [1.0, 2.0, 4.0, 4.0]

    def test_reset_snaps_back_to_initial(self):
        backoff = Backoff(1.0, cap=60.0, multiplier=2.0, jitter=0.0)
        backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == 1.0

    def test_jitter_spreads_but_never_goes_negative(self):
        backoff = Backoff(1.0, cap=60.0, jitter=0.5, rng=random.Random(7))
        delays = [backoff.next_delay() for _ in range(50)]
        assert all(delay >= 0.0 for delay in delays)
        assert len(set(delays)) > 1  # the noise is real

    def test_caller_pins_initial_over_the_shared_ladder(self):
        backoff = Backoff(initial=0.01)
        assert backoff.initial == 0.01
        assert (backoff.cap, backoff.multiplier, backoff.jitter) == (
            resilience.BACKOFF_CAP,
            resilience.BACKOFF_MULTIPLIER,
            resilience.BACKOFF_JITTER,
        )
        assert Backoff().initial == resilience.BACKOFF_INITIAL


class TestJittered:
    def test_bounded_spread(self):
        rng = random.Random(3)
        values = [jittered(10.0, fraction=0.1, rng=rng) for _ in range(100)]
        assert all(9.0 <= value <= 11.0 for value in values)
        assert len(set(values)) > 1

    def test_zero_and_negative_are_clamped(self):
        assert jittered(0.0, fraction=0.5) == 0.0
        assert jittered(-1.0, fraction=0.5) == 0.0

    def test_fraction_defaults_to_the_shared_jitter(self):
        fraction = resilience.BACKOFF_JITTER
        assert jittered(5.0, rng=random.Random(4)) == jittered(
            5.0, fraction=fraction, rng=random.Random(4)
        )
        assert all(
            5.0 * (1 - fraction) <= jittered(5.0) <= 5.0 * (1 + fraction)
            for _ in range(50)
        )


class TestRetryBudget:
    def test_grants_exactly_the_budget(self):
        budget = RetryBudget(3)
        assert [budget.grant() for _ in range(5)] == [True, True, True, False, False]
        assert budget.exhausted


class TestLeasePolicy:
    def test_deadline_and_budget_come_from_the_policy(self):
        policy = LeasePolicy(lease_seconds=30.0, max_attempts=5)
        deadline = policy.lease_deadline(now=100.0)
        assert deadline.expires_at == pytest.approx(130.0)
        assert policy.lease_budget().attempts == 5


class TestCircuitBreaker:
    def test_opens_at_the_threshold_only_once(self):
        breaker = CircuitBreaker(threshold=3, reset_seconds=10.0)
        assert breaker.record_failure(now=0.0) is False
        assert breaker.record_failure(now=1.0) is False
        assert breaker.record_failure(now=2.0) is True  # the transition
        assert breaker.state == OPEN
        assert breaker.opened_count == 1

    def test_open_refuses_until_cooldown_then_probes_once(self):
        breaker = CircuitBreaker(threshold=1, reset_seconds=10.0)
        breaker.record_failure(now=0.0)
        assert not breaker.allow(now=5.0)
        assert breaker.cooldown(now=5.0) == pytest.approx(5.0)
        # Cooldown passed: exactly one half-open probe is admitted.
        assert breaker.allow(now=10.0)
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(now=10.0)

    def test_successful_probe_closes(self):
        breaker = CircuitBreaker(threshold=1, reset_seconds=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=10.0)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow(now=10.0)

    def test_failed_probe_reopens_for_another_cooldown(self):
        breaker = CircuitBreaker(threshold=1, reset_seconds=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=10.0)
        assert breaker.record_failure(now=10.0) is True  # re-open transition
        assert not breaker.allow(now=15.0)
        assert breaker.allow(now=20.0)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, reset_seconds=10.0)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        assert breaker.record_failure(now=1.0) is False  # streak restarted
        assert breaker.state == CLOSED


class TestPause:
    def test_stop_event_interrupts_and_reports(self):
        stop = threading.Event()
        stop.set()
        assert pause(60.0, stop) is True  # returns immediately

    def test_plain_sleep_returns_false(self):
        assert pause(0.0) is False


class TestRetryCall:
    def test_returns_first_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        result = retry_call(
            flaky,
            retryable=(OSError,),
            budget=RetryBudget(5),
            backoff=Backoff(0.0, cap=0.0, jitter=0.0),
        )
        assert result == "done"
        assert len(calls) == 3

    def test_exhausted_budget_raises_the_last_error(self):
        def always_fails():
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            retry_call(
                always_fails,
                retryable=(OSError,),
                budget=RetryBudget(3),
                backoff=Backoff(0.0, cap=0.0, jitter=0.0),
            )

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def wrong():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(wrong, retryable=(OSError,), budget=RetryBudget(5))
        assert len(calls) == 1

    def test_giveup_vetoes_a_retryable_error(self):
        calls = []

        def refused():
            calls.append(1)
            raise ConnectionRefusedError("nope")

        with pytest.raises(ConnectionRefusedError):
            retry_call(
                refused,
                retryable=(OSError,),
                giveup=lambda error: isinstance(error, ConnectionRefusedError),
                budget=RetryBudget(5),
            )
        assert len(calls) == 1

    def test_stop_event_abandons_the_wait(self):
        stop = threading.Event()
        calls = []

        def fail_and_trip():
            calls.append(1)
            stop.set()
            raise OSError("down")

        with pytest.raises(OSError):
            retry_call(
                fail_and_trip,
                retryable=(OSError,),
                budget=RetryBudget(10),
                backoff=Backoff(0.0, cap=0.0, jitter=0.0),
                stop=stop,
            )
        assert len(calls) == 1  # the set stop event cut the loop short

    def test_log_narrates_retries(self):
        lines = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("blip")
            return "ok"

        retry_call(
            flaky,
            retryable=(OSError,),
            budget=RetryBudget(3),
            backoff=Backoff(0.0, cap=0.0, jitter=0.0),
            log=lines.append,
            describe="unit fetch",
        )
        assert any("unit fetch" in line for line in lines)


class TestKnobAccessors:
    def test_http_timeout_default(self):
        assert resilience.http_timeout() == 60.0

    def test_request_deadline_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "0")
        assert resilience.request_deadline_seconds() is None
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE", "12.5")
        assert resilience.request_deadline_seconds() == 12.5

    def test_drain_seconds_default(self):
        assert resilience.drain_seconds() == 10.0
