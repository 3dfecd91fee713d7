"""Failure injection for experiments.

The paper's arguments hinge on what happens when components fail or fall
behind: a consumer data center down for days (§3.1), cache pods handed
off mid-invalidation (§3.2.2), workers dying mid-task (§3.2.4).  The
injector schedules those disturbances against any component implementing
the small :class:`Failable` protocol, and records every injected fault so
experiments can correlate outcomes with causes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry


@runtime_checkable
class Failable(Protocol):
    """Anything that can be crashed and recovered."""

    def crash(self) -> None:
        """Stop the component; in-flight work is lost per component rules."""

    def recover(self) -> None:
        """Bring the component back; it resumes from its durable state."""


@dataclass
class InjectedFault:
    """Record of one injected fault, for post-run analysis."""

    kind: str
    target: str
    start: float
    end: Optional[float] = None


@dataclass
class FailureInjector:
    """Schedules crashes/outages against failable components.

    Injected faults are counted in ``crashes``, ``recoveries``,
    ``partitions`` and ``heals``, reported to ``metrics`` as
    ``faults.<count>`` once nonzero.
    """

    sim: Simulation
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    log: List[InjectedFault] = field(default_factory=list)
    crashes: int = field(default=0, init=False)
    recoveries: int = field(default=0, init=False)
    partitions: int = field(default=0, init=False)
    heals: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.metrics.register(self._counts)

    def _counts(self) -> Iterator[Tuple[str, int]]:
        for name, value in (
            ("faults.crashes", self.crashes),
            ("faults.recoveries", self.recoveries),
            ("faults.partitions", self.partitions),
            ("faults.heals", self.heals),
        ):
            if value:
                yield name, value

    def outage(self, target: Failable, name: str, start: float, duration: float) -> InjectedFault:
        """Crash ``target`` at ``start`` and recover it ``duration`` later."""
        if duration <= 0:
            raise ValueError(f"outage duration must be positive, got {duration}")
        fault = InjectedFault(kind="outage", target=name, start=start, end=start + duration)

        def begin() -> None:
            target.crash()
            self.crashes += 1

        def finish() -> None:
            target.recover()
            self.recoveries += 1

        self.sim.call_at(start, begin)
        self.sim.call_at(start + duration, finish)
        self.log.append(fault)
        return fault

    def crash_at(self, target: Failable, name: str, start: float) -> InjectedFault:
        """Crash ``target`` at ``start`` permanently (no scheduled recovery)."""
        fault = InjectedFault(kind="crash", target=name, start=start)

        def begin() -> None:
            target.crash()
            self.crashes += 1

        self.sim.call_at(start, begin)
        self.log.append(fault)
        return fault

    def partition_window(
        self, net, a: str, b: str, start: float, duration: float
    ) -> InjectedFault:
        """Partition endpoints ``a``/``b`` on ``net`` at ``start`` and
        heal ``duration`` later.  Traffic already in flight when the
        partition begins is dropped by the network model, exactly like a
        real link cut."""
        if duration <= 0:
            raise ValueError(
                f"partition duration must be positive, got {duration}"
            )
        fault = InjectedFault(
            kind="partition", target=f"{a}<->{b}", start=start,
            end=start + duration,
        )

        def begin() -> None:
            net.partition(a, b)
            self.partitions += 1

        def finish() -> None:
            net.heal(a, b)
            self.heals += 1

        self.sim.call_at(start, begin)
        self.sim.call_at(start + duration, finish)
        self.log.append(fault)
        return fault

    def random_outages(
        self,
        target: Failable,
        name: str,
        horizon: float,
        mean_interval: float,
        mean_duration: float,
    ) -> List[InjectedFault]:
        """Schedule Poisson-ish outages over ``[now, now+horizon)``.

        Inter-arrival and durations are exponential with the given means,
        drawn from the simulation RNG for reproducibility.  Outages never
        overlap: the next is scheduled after the previous recovery.
        """
        if mean_interval <= 0 or mean_duration <= 0:
            raise ValueError("mean_interval and mean_duration must be positive")
        faults: List[InjectedFault] = []
        t = self.sim.now()
        end = t + horizon
        while True:
            t += self.sim.rng.expovariate(1.0 / mean_interval)
            if t >= end:
                break
            duration = min(self.sim.rng.expovariate(1.0 / mean_duration), end - t)
            if duration <= 0:
                break
            faults.append(self.outage(target, name, t, duration))
            t += duration
        return faults
