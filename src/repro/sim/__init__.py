"""Deterministic discrete-event simulation kernel.

Everything in this reproduction runs on virtual time so that "days" of
consumer backlog or millions of messages of load can be simulated
deterministically and quickly.  The kernel is a small SimPy-like engine:

- :class:`~repro.sim.kernel.Simulation` owns the virtual clock and an event
  heap.  Callbacks are scheduled with :meth:`Simulation.call_at` /
  :meth:`Simulation.call_after`.
- Long-running actors are written as generator *processes* that ``yield``
  a :class:`~repro.sim.kernel.Timeout` or a number of seconds (see
  :meth:`Simulation.spawn`).
- :class:`~repro.sim.network.Network` models message latency, loss and
  reordering between simulated nodes.
- :class:`~repro.sim.metrics.MetricsRegistry` collects counters, gauges
  and histograms for the experiment harness.
- :class:`~repro.sim.failures.FailureInjector` schedules crashes,
  slowdowns and partitions.

Determinism contract: given the same seed and the same sequence of
schedule calls, a simulation replays identically.  Ties in the event heap
are broken by insertion order, and all randomness flows through the
simulation's seeded :class:`random.Random`.
"""

from repro.sim.clock import VirtualClock
from repro.sim.kernel import Simulation, Timeout, ProcessExit, SimError
from repro.sim.network import Network, NetworkConfig, Endpoint
from repro.sim.metrics import MetricsRegistry, Histogram
from repro.sim.failures import FailureInjector

__all__ = [
    "VirtualClock",
    "Simulation",
    "Timeout",
    "ProcessExit",
    "SimError",
    "Network",
    "NetworkConfig",
    "Endpoint",
    "MetricsRegistry",
    "Histogram",
    "FailureInjector",
]
