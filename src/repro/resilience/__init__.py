"""Resilience primitives: retry policies, breakers, reliable delivery.

The simulator's network and components are deliberately fail-fast:
``Network.send`` drops on loss/partition and "callers model retries
themselves".  This package is where callers get that machinery —
self-stabilization in the sense of the supervised-pubsub literature:

- :class:`RetryPolicy` — exponential backoff with deterministic jitter
  drawn from the simulation RNG, capped by attempts and/or deadline;
- :class:`CircuitBreaker` — closed/open/half-open with sim-clock
  cooldowns, so a dead destination is not hammered forever;
- :class:`ReliableChannel` — ack-tracking, retransmission, duplicate
  suppression, and optional in-order delivery (per-sender sequence
  numbers) layered on top of ``Network.send``.

Everything is instrumented through :class:`MetricsRegistry` (retries,
breaker trips, duplicate drops, retransmit bytes) and everything is
deterministic under a fixed simulation seed.
"""

from repro.resilience.breaker import BreakerOpen, BreakerState, CircuitBreaker, CircuitBreakerConfig
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.resilience.retry import RetryPolicy

__all__ = [
    "BreakerOpen",
    "BreakerState",
    "ChannelConfig",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "ReliableChannel",
    "RetryPolicy",
]
