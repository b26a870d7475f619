"""Unit tests for the shared retry/backoff and deadline primitives.

Everything here is deterministic and sleep-free: the jitter is a pure
function of ``(seed, attempt)``, the deadline clock is injected, and the
client backoff test records the delays instead of serving them.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import DeadlineExceededError, ServiceError
from repro.resilience import Deadline, RetryPolicy
from repro.sim.engine import ResilienceStats


class TestRetryPolicy:
    def test_delays_are_deterministic_for_a_seed(self):
        policy = RetryPolicy(seed="alpha")
        again = RetryPolicy(seed="alpha")
        assert list(policy.delays()) == list(again.delays())

    def test_zero_jitter_is_exact_capped_exponential(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, max_delay=1.0, multiplier=2.0, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.8, 1.0]

    def test_delay_never_exceeds_cap_plus_jitter(self):
        policy = RetryPolicy(
            max_attempts=30, base_delay=0.5, max_delay=2.0, multiplier=3.0,
            jitter=0.25, seed="cap",
        )
        bound = policy.max_delay * (1.0 + policy.jitter)
        for attempt in range(60):
            delay = policy.delay(attempt)
            assert 0.0 <= delay <= bound
        # Far past the cap the exponential term is saturated: only the
        # per-attempt jitter still varies the delay.
        assert policy.delay(50) >= policy.max_delay

    def test_jitter_is_bounded_fraction(self):
        policy = RetryPolicy(jitter=0.25, seed="frac")
        for attempt in range(20):
            base = RetryPolicy(jitter=0.0).delay(attempt)
            assert base <= policy.delay(attempt) < base * 1.25 + 1e-12

    def test_distinct_seeds_decorrelate(self):
        first = RetryPolicy(seed="client-a")
        second = first.with_seed("client-b")
        # Same shape, different jitter sequence.
        assert second.max_attempts == first.max_attempts
        assert list(first.delays()) != list(second.delays())

    def test_retries_property_and_delays_length(self):
        policy = RetryPolicy(max_attempts=4)
        assert policy.retries == 3
        assert len(list(policy.delays())) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestDeadline:
    def test_remaining_and_expiry_with_fake_clock(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired
        now[0] = 104.0
        assert deadline.remaining() == pytest.approx(1.0)
        now[0] = 105.0
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.check("sweep")

    def test_after_normalises_none_number_and_deadline(self):
        assert Deadline.after(None) is None
        existing = Deadline(1.0)
        assert Deadline.after(existing) is existing
        fresh = Deadline.after(2.5, clock=lambda: 0.0)
        assert isinstance(fresh, Deadline)
        assert fresh.seconds == 2.5

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestResilienceStats:
    def test_resilience_stats_merge(self):
        left = ResilienceStats(expired=1, requeues=2)
        left.merge(ResilienceStats(expired=3, hung_killed=1, degraded_serial=4))
        assert (left.expired, left.requeues, left.hung_killed, left.degraded_serial) == (
            4, 2, 1, 4,
        )


class TestClientBackoffCap:
    """Regression: the service client's backoff used to double unbounded."""

    def _refused_address(self) -> str:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return f"127.0.0.1:{port}"

    def test_connect_backoff_is_capped_jittered_and_bounded(self, monkeypatch):
        from repro.service import client as client_module

        recorded: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", recorded.append)
        policy = RetryPolicy(
            max_attempts=5, base_delay=10.0, max_delay=25.0, multiplier=4.0,
            jitter=0.25, seed="test-client",
        )
        with pytest.raises(ServiceError, match="after 5 attempts"):
            client_module.ServiceClient(
                self._refused_address(), timeout=1.0, retry_policy=policy
            )
        # One backoff per retry, following the policy exactly: capped at
        # max_delay * (1 + jitter) instead of doubling without bound.
        assert recorded == [policy.delay(attempt) for attempt in range(4)]
        assert all(delay <= 25.0 * 1.25 for delay in recorded)
        assert recorded[1] >= 25.0  # the cap is in force from attempt 1 on
