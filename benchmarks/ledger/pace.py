"""Host-pace correction for wall-clock numbers on a shared box.

The sandbox this ledger runs on is a 2-vCPU VM whose effective speed
drifts by ±25% over tens of seconds (measured: a fixed pure-Python loop
timed for seven minutes; ``time.process_time`` drifts with it, so it is
the CPU slowing down, not the process being descheduled).  No estimator
over raw walls — median, minimum, quartile, any repetition length —
brought ten back-to-back runs of identical code within 10% of each
other.  What does: time a fixed *reference chunk* of interpreter work
right before and after every slice of the measured section, and divide
the slice's wall by how much slower than nominal the chunk ran.  Ten
raw ``broker-fanout`` runs spread 21%; corrected, under 2%.

A corrected second is therefore "a second on a host that runs the
reference chunk at its nominal pace".  The chunk lives here, where a
change that claims a gain may not edit it, and the uncorrected numbers
are still reported (``host.raw_delivered_per_s``, ``host.slowdown``).

Tried and dropped: adding a memory-bound part to the reference (a
pointer chase through a 4 MB array, blended 0.75 / 0.25).  It spread
less on eight same-seed runs of the 85 MB ``watch-edge-storm`` (2.5%
against 4.9%) but no less over ten seeds on any workload, and it cost a
second kind of work, a weight, and 4 MB of every workload's RSS.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: the chunk's median pace on the reference box over several minutes
#: (its fastest is ~0.008 s, slow phases reach 0.015 s); only a scale,
#: chosen so that corrected seconds read like that box's raw seconds
NOMINAL_S = 0.011

_CHUNK_OPS = 36_000


def slowdown() -> float:
    """How many times slower than nominal the host runs right now.

    The chunk does what the simulator does all day: dict stores and
    probes, small tuple and string allocation, deque traffic, bound
    method calls.
    """
    table = {}
    queue = deque()
    push, pop, probe = queue.append, queue.popleft, table.get
    start = time.perf_counter()
    for i in range(_CHUNK_OPS):
        key = i & 1023
        table[key] = (i, str(key & 63))
        push(probe(key ^ 1))
        if i & 3 == 3:
            pop()
            pop()
    return (time.perf_counter() - start) / NOMINAL_S


class HostPace:
    """Times calls and corrects each wall by the slowdown around it."""

    def __init__(self) -> None:
        self.samples: List[float] = [slowdown()]

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; return its result and its raw and corrected
        wall seconds.

        The correction uses the mean of the slowdown sampled just
        before (the previous call's trailing sample) and just after.
        """
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        before = self.samples[-1]
        after = slowdown()
        self.samples.append(after)
        return result, raw, raw * 2.0 / (before + after)
