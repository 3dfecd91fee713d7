"""Retry policies on the simulation clock.

A :class:`RetryPolicy` is pure data plus arithmetic: given an attempt
number and the simulation RNG it produces the next backoff delay, so
two runs with the same seed produce identical retry schedules.  The
reliable channel and the CDC publisher drive their retransmits
through one.

Usage::

    policy = RetryPolicy(base_delay=0.05, max_delay=2.0, max_attempts=6)
    delay = policy.backoff(attempt=3, rng=sim.rng)   # pure arithmetic

:meth:`RetryPolicy.unbounded` is the chaos-soak flavour: the message
must outlive the fault, so only the per-delay cap applies; see
``docs/observability.md`` for how channel retransmits show up in trace
reports (``channel.transmit`` with ``attempt > 1``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and hard caps.

    ``backoff(attempt, rng)`` returns the delay to wait after the
    ``attempt``-th failure (1-based): ``base_delay * multiplier**(n-1)``
    clamped to ``max_delay``, plus up to ``jitter`` (a *fraction* of the
    clamped delay) drawn from ``rng`` — the sim RNG, so schedules are
    reproducible.  ``max_attempts`` bounds total tries (None =
    unbounded).
    """

    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    max_attempts: Optional[int] = 8

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError("base_delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 when set")

    @staticmethod
    def unbounded(base_delay: float = 0.05, max_delay: float = 5.0) -> "RetryPolicy":
        """Retry forever (reliable-delivery channels use this: the
        message is abandoned only if the caller tears the channel down)."""
        return RetryPolicy(
            base_delay=base_delay, max_delay=max_delay, max_attempts=None
        )

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay to wait after failure number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        exponent = min(attempt - 1, 62)  # avoid float overflow
        delay = min(self.base_delay * self.multiplier ** exponent, self.max_delay)
        if self.jitter > 0:
            delay += rng.random() * self.jitter * delay
        return delay

    def allows(self, attempt: int) -> bool:
        """May attempt number ``attempt`` (1-based) still be made?"""
        return self.max_attempts is None or attempt <= self.max_attempts
