"""Virtual clock for discrete-event simulation.

The clock is advanced only by the simulation kernel; components read it
through :meth:`VirtualClock.now`.  Using a shared clock object (rather
than passing floats around) lets substrates such as the pubsub broker's
retention GC or the watch system's staleness tracker observe a single
consistent notion of time.
"""

from __future__ import annotations


class ClockError(RuntimeError):
    """Raised on an illegal clock manipulation (e.g. moving backwards)."""


class VirtualClock:
    """A monotonically advancing virtual clock.

    Time is a float in arbitrary units; experiments in this repository
    treat one unit as one second, and helpers below convert from human
    units.  Only the simulation kernel should call :meth:`advance_to`.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        """Return the current virtual time."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        Raises :class:`ClockError` if ``t`` is in the past; the kernel's
        event heap guarantees it never is, so a failure here indicates a
        kernel bug rather than a user error.
        """
        if t < self._now:
            raise ClockError(f"clock moving backwards: {self._now} -> {t}")
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now})"


#: Number of virtual-time units per second.  All durations in this code
#: base are expressed in seconds; these constants exist so experiment
#: scripts can say ``3 * DAYS`` instead of a bare magic number.
SECONDS = 1.0
MINUTES = 60.0 * SECONDS
HOURS = 60.0 * MINUTES
DAYS = 24.0 * HOURS


def hours(n: float) -> float:
    """Return ``n`` hours in clock units."""
    return n * HOURS
