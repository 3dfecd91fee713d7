"""Retry policies and deadlines on the simulation clock.

A :class:`RetryPolicy` is pure data plus arithmetic: given an attempt
number and the simulation RNG it produces the next backoff delay, so
two runs with the same seed produce identical retry schedules.  The
:class:`Retrier` drives an attempt function through a policy on the
kernel; :class:`Deadline` is the time-budget half of the same story,
usable both standalone and as a wrapper for scheduled callbacks.

Usage::

    policy = RetryPolicy(base_delay=0.05, max_delay=2.0, max_attempts=6)
    delay = policy.backoff(attempt=3, rng=sim.rng)   # pure arithmetic

    # or let a Retrier drive the whole schedule on the kernel:
    Retrier(
        sim, policy,
        attempt_fn=lambda: net.send(src, dst, frame),  # falsy => retry
        on_giveup=lambda: dlq.append(frame),
    ).start()

    deadline = Deadline(sim, 5.0)        # 5 virtual seconds from now
    if deadline.expired:
        ...  # shed the work instead of finishing it uselessly late

:meth:`RetryPolicy.unbounded` is the chaos-soak flavour: the message
must outlive the fault, so only the per-delay cap applies; see
``docs/observability.md`` for how channel retransmits show up in trace
reports (``channel.transmit`` with ``attempt > 1``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and hard caps.

    ``backoff(attempt, rng)`` returns the delay to wait after the
    ``attempt``-th failure (1-based): ``base_delay * multiplier**(n-1)``
    clamped to ``max_delay``, plus up to ``jitter`` (a *fraction* of the
    clamped delay) drawn from ``rng`` — the sim RNG, so schedules are
    reproducible.  ``max_attempts`` bounds total tries (None =
    unbounded); ``deadline`` bounds total elapsed time since the first
    attempt (None = unbounded).
    """

    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    max_attempts: Optional[int] = 8
    deadline: Optional[float] = None

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
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive when set")

    @staticmethod
    def none() -> "RetryPolicy":
        """Fire-and-forget: a single attempt, no retries."""
        return RetryPolicy(max_attempts=1)

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

    def allows(self, attempt: int, started_at: float, now: float) -> bool:
        """May attempt number ``attempt`` (1-based) still be made?"""
        if self.max_attempts is not None and attempt > self.max_attempts:
            return False
        return not self.expired(started_at, now)

    def expired(self, started_at: float, now: float) -> bool:
        """Has the time budget since ``started_at`` run out?"""
        return self.deadline is not None and now - started_at >= self.deadline


class Deadline:
    """An absolute point on the sim clock by which work must finish."""

    __slots__ = ("sim", "expires_at")

    def __init__(self, sim: Simulation, timeout: float) -> None:
        if timeout < 0:
            raise ValueError("timeout must be >= 0")
        self.sim = sim
        self.expires_at = sim.now() + timeout

    @staticmethod
    def at(sim: Simulation, expires_at: float) -> "Deadline":
        """Deadline at an absolute virtual time (possibly in the past)."""
        deadline = Deadline(sim, 0.0)
        deadline.expires_at = expires_at
        return deadline

    @property
    def expired(self) -> bool:
        return self.sim.now() >= self.expires_at

    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.sim.now())

    def wrap(
        self,
        fn: Callable[[], None],
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> Callable[[], None]:
        """Wrap a scheduled callback: if the deadline has passed when it
        fires, ``on_timeout`` (if any) runs instead of ``fn``."""

        def guarded() -> None:
            if self.expired:
                if on_timeout is not None:
                    on_timeout()
                return
            fn()

        return guarded


class Retrier:
    """Drives an attempt function through a :class:`RetryPolicy`.

    ``attempt_fn`` returns truthy on success.  Failures are retried
    after the policy's backoff until it succeeds or the policy is
    exhausted, at which point ``on_giveup`` fires.  All scheduling is on
    the sim kernel; all jitter comes from the sim RNG.
    """

    def __init__(
        self,
        sim: Simulation,
        policy: RetryPolicy,
        attempt_fn: Callable[[], bool],
        name: str = "op",
        metrics: Optional[MetricsRegistry] = None,
        on_success: Optional[Callable[[], None]] = None,
        on_giveup: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.attempt_fn = attempt_fn
        self.name = name
        self.metrics = metrics or MetricsRegistry()
        self.on_success = on_success
        self.on_giveup = on_giveup
        self.attempts = 0
        self.done = False
        self.succeeded = False
        self._started_at: Optional[float] = None
        self._cancelled = False

    def start(self) -> "Retrier":
        self._started_at = self.sim.now()
        self._attempt()
        return self

    def cancel(self) -> None:
        self._cancelled = True

    def _attempt(self) -> None:
        if self._cancelled or self.done:
            return
        self.attempts += 1
        self.metrics.counter("resilience.retry.attempts").inc()
        if self.attempt_fn():
            self.done = True
            self.succeeded = True
            if self.on_success is not None:
                self.on_success()
            return
        assert self._started_at is not None
        delay = self.policy.backoff(self.attempts, self.sim.rng)
        next_at = self.sim.now() + delay
        if not self.policy.allows(self.attempts + 1, self._started_at, next_at):
            self.done = True
            self.metrics.counter("resilience.retry.gaveup").inc()
            if self.on_giveup is not None:
                self.on_giveup()
            return
        self.metrics.counter("resilience.retry.retries").inc()
        self.sim.post(delay, self._attempt)
