"""Circuit breaker on the simulation clock.

Retries stop a transient fault from becoming data loss; a breaker stops
a *persistent* fault from becoming a retry storm.  Standard three-state
machine:

- **closed** — calls flow; consecutive failures are counted;
- **open** — after ``failure_threshold`` consecutive failures, calls
  fail fast for ``cooldown`` virtual seconds;
- **half-open** — after the cooldown, up to ``half_open_probes`` trial
  calls are let through; one success closes the
  breaker, any failure re-opens it (with a fresh cooldown).  A probe
  whose outcome is never reported (the caller itself died mid-call) is
  reclaimed after a further cooldown, so a lost probe cannot wedge the
  breaker half-open forever.

State transitions are recorded (for experiment tables) and counted in
plain ints, reported to the metrics registry under
``resilience.breaker.<name>.*`` once touched: ``transitions``,
``trips``, ``fast_failures``, ``probe_reclaims``, and ``state`` (0
closed, 1 half-open, 2 open) from the first transition on.

Usage::

    breaker = CircuitBreaker(sim, "to-edge", CircuitBreakerConfig(
        failure_threshold=5, cooldown=1.0))

    if breaker.allow():                  # gate the call
        ok = net.send(src, dst, frame)
        if ok:
            breaker.record_success()     # report the outcome
        else:
            breaker.record_failure()
    else:
        ...  # fast-fail: queue or shed without touching the wire

:class:`ReliableChannel` wires exactly this pattern around every
retransmit when a ``breaker`` config is set; E10 reads the trip count
out of the registry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry


class BreakerOpen(RuntimeError):
    """Raised by :meth:`CircuitBreaker.check` while the breaker is open."""


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: the ``state`` metric's reading of each state
_LEVEL = {BreakerState.CLOSED: 0, BreakerState.HALF_OPEN: 1, BreakerState.OPEN: 2}


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Trip and recovery parameters."""

    failure_threshold: int = 5
    cooldown: float = 1.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown <= 0:
            raise ValueError("cooldown must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


class CircuitBreaker:
    """Closed/open/half-open breaker driven by explicit outcome reports.

    Usage: gate each call with :meth:`allow` (or :meth:`check`, which
    raises), then report :meth:`record_success` / :meth:`record_failure`
    once the outcome is known.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str = "breaker",
        config: Optional[CircuitBreakerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or CircuitBreakerConfig()
        self.metrics = metrics or MetricsRegistry()
        self.state = BreakerState.CLOSED
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._last_probe_at = 0.0
        self.trips = 0
        self.fast_failures = 0
        self.probe_reclaims = 0
        self.metrics.register(self._counts)

    def _counts(self) -> Iterator[Tuple[str, int]]:
        prefix = f"resilience.breaker.{self.name}."
        if self.transitions:
            yield prefix + "transitions", len(self.transitions)
            yield prefix + "state", _LEVEL[self.state]
        if self.trips:
            yield prefix + "trips", self.trips
        if self.fast_failures:
            yield prefix + "fast_failures", self.fast_failures
        if self.probe_reclaims:
            yield prefix + "probe_reclaims", self.probe_reclaims

    # ------------------------------------------------------------------
    # gating

    def allow(self) -> bool:
        """May a call proceed right now?  (Counts a half-open probe.)"""
        if self.state is BreakerState.OPEN:
            if self.sim.now() - self._opened_at >= self.config.cooldown:
                self._transition(BreakerState.HALF_OPEN)
            else:
                self.fast_failures += 1
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_in_flight >= self.config.half_open_probes:
                if self.sim.now() - self._last_probe_at >= self.config.cooldown:
                    # every granted probe has gone a full cooldown
                    # without reporting back — the caller died mid-call
                    # (crash cancelled its timeout) and the outcome is
                    # never coming.  Reclaim the slots rather than stay
                    # wedged half-open with an exhausted budget forever.
                    self._probes_in_flight = 0
                    self.probe_reclaims += 1
                else:
                    self.fast_failures += 1
                    return False
            self._probes_in_flight += 1
            self._last_probe_at = self.sim.now()
        return True

    def check(self) -> None:
        """Like :meth:`allow`, but raises :class:`BreakerOpen`."""
        if not self.allow():
            raise BreakerOpen(f"breaker {self.name!r} is {self.state.value}")

    def cooldown_remaining(self) -> float:
        """Seconds until an open breaker will admit a probe (0 if not open)."""
        if self.state is not BreakerState.OPEN:
            return 0.0
        return max(0.0, self.config.cooldown - (self.sim.now() - self._opened_at))

    # ------------------------------------------------------------------
    # outcome reports

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            # one successful probe closes the breaker
            self._transition(BreakerState.CLOSED)
            return
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._transition(BreakerState.OPEN)
            return
        if self.state is BreakerState.OPEN:
            return  # failures reported late, while already open
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.config.failure_threshold:
            self._transition(BreakerState.OPEN)

    # ------------------------------------------------------------------
    # internals

    def _transition(self, to: BreakerState) -> None:
        if to is self.state:
            return
        self.transitions.append((self.sim.now(), self.state, to))
        if to is BreakerState.OPEN:
            self._opened_at = self.sim.now()
            self.trips += 1
        if to is BreakerState.CLOSED:
            self._consecutive_failures = 0
        self._probes_in_flight = 0
        self.state = to
