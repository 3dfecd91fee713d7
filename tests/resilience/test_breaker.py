"""Tests for the circuit breaker state machine."""

import pytest

from repro.resilience.breaker import (
    BreakerOpen,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
)
from repro.sim.metrics import MetricsRegistry


def make_breaker(sim, **overrides):
    defaults = dict(failure_threshold=3, cooldown=10.0)
    defaults.update(overrides)
    metrics = MetricsRegistry()
    breaker = CircuitBreaker(
        sim, name="b", config=CircuitBreakerConfig(**defaults), metrics=metrics
    )
    return breaker, metrics


def advance(sim, delay):
    sim.call_after(delay, lambda: None)
    sim.run()


class TestTripping:
    def test_trips_after_consecutive_failures(self, sim):
        breaker, metrics = make_breaker(sim)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1
        assert breaker.fast_failures == 1
        assert metrics.get("resilience.breaker.b.state") == 2

    def test_success_resets_failure_count(self, sim):
        breaker, _ = make_breaker(sim)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_check_raises_when_open(self, sim):
        breaker, _ = make_breaker(sim, failure_threshold=1)
        breaker.record_failure()
        with pytest.raises(BreakerOpen):
            breaker.check()

    def test_cooldown_remaining(self, sim):
        breaker, _ = make_breaker(sim, failure_threshold=1, cooldown=10.0)
        assert breaker.cooldown_remaining() == 0.0
        breaker.record_failure()
        assert breaker.cooldown_remaining() == 10.0
        advance(sim, 4.0)
        assert breaker.cooldown_remaining() == 6.0


class TestHalfOpen:
    def test_probe_success_closes(self, sim):
        breaker, metrics = make_breaker(sim, failure_threshold=1, cooldown=5.0)
        breaker.record_failure()
        advance(sim, 5.0)
        assert breaker.allow()  # the cooldown expired: half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert metrics.get("resilience.breaker.b.state") == 0

    def test_probe_failure_reopens_with_fresh_cooldown(self, sim):
        breaker, _ = make_breaker(sim, failure_threshold=1, cooldown=5.0)
        breaker.record_failure()
        advance(sim, 5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.cooldown_remaining() == 5.0

    def test_probe_budget_limits_half_open_calls(self, sim):
        breaker, _ = make_breaker(
            sim, failure_threshold=1, cooldown=1.0, half_open_probes=2
        )
        breaker.record_failure()
        advance(sim, 1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_stranded_probe_is_reclaimed_after_cooldown(self, sim):
        # a granted probe whose caller dies without reporting an outcome
        # must not wedge the breaker half-open with an exhausted budget
        breaker, metrics = make_breaker(sim, failure_threshold=1, cooldown=1.0)
        breaker.record_failure()
        advance(sim, 1.0)
        assert breaker.allow()          # probe granted, outcome never reported
        assert not breaker.allow()      # budget spent
        advance(sim, 0.5)
        assert not breaker.allow()      # still within the probe's cooldown
        advance(sim, 0.5)
        assert breaker.allow()          # stranded slot reclaimed
        assert breaker.probe_reclaims == 1
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED


class TestBookkeeping:
    def test_transitions_are_recorded_with_times(self, sim):
        breaker, metrics = make_breaker(sim, failure_threshold=1, cooldown=2.0)
        breaker.record_failure()
        advance(sim, 2.0)
        breaker.allow()
        breaker.record_success()
        states = [(frm, to) for _, frm, to in breaker.transitions]
        assert states == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]
        assert metrics.get("resilience.breaker.b.transitions") == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CircuitBreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(cooldown=0.0)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(half_open_probes=0)
