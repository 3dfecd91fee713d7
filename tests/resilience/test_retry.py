"""Tests for retry policies."""

import random

import pytest

from repro.resilience.retry import RetryPolicy


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff(n, rng) for n in range(1, 7)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert delays[4] == 1.0 and delays[5] == 1.0  # clamped

    def test_huge_attempt_number_does_not_overflow(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.backoff(10_000, random.Random(0)) == policy.max_delay

    def test_jitter_is_deterministic_under_same_seed(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.backoff(n, random.Random(7)) for n in range(1, 6)]
        b = [policy.backoff(n, random.Random(7)) for n in range(1, 6)]
        assert a == b

    def test_jitter_is_bounded_fraction_of_delay(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.25
        )
        rng = random.Random(3)
        for _ in range(100):
            assert 1.0 <= policy.backoff(1, rng) <= 1.25

    def test_allows_attempt_bound(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(3)
        assert not policy.allows(4)

    def test_unbounded_never_exhausts(self):
        policy = RetryPolicy.unbounded()
        assert policy.allows(1_000_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0, random.Random(0))
