"""Pure-heap reference kernel: the readable spec ``Simulation`` must refine.

One ``heapq`` ordered by ``(time, seq)`` — no zero-delay lane, no wheel, no
slab, no tombstone counter; a reserved seq (``next_seq``) is a counter draw
that ``call_at_seq`` pushes later.  It reuses the real ``EventHandle`` (so
entries keep the real list layout) and the real process/``Waiter`` glue,
which only calls ``post``.  Test-only, never imported from ``src/``.
"""
import heapq
import itertools
import random

from repro.sim.clock import VirtualClock
from repro.sim.kernel import EventHandle, SimError, Simulation, _component_of

_INF = float("inf")


class ReferenceSimulation:
    def __init__(self, seed=0, start=0.0):
        self.clock = VirtualClock(start)
        self.rng = random.Random(seed)
        self.seed = seed
        self.profiler = None
        self._heap = []  # [time, seq, fn, label, cancelled]: the real entry layout
        self._seq = itertools.count()
        self._running = False
        self._processes = []

    def next_seq(self):
        return next(self._seq)

    def call_at_seq(self, t, seq, fn, label=None):
        t = float(t)
        if not self.now() <= t < _INF:
            raise SimError(f"cannot schedule at {t!r} (now={self.now()})")
        entry = [t, seq, fn, label, False]
        heapq.heappush(self._heap, entry)
        return EventHandle(entry, self, seq)

    def call_at(self, t, fn, label=None):
        return self.call_at_seq(t, self.next_seq(), fn, label)

    def call_after(self, delay, fn, label=None):
        if delay < 0:
            raise SimError(f"negative delay {delay!r}")
        return self.call_at(self.now() + delay, fn, label)

    def post(self, delay, fn, label=None):
        self.call_after(delay, fn, label)

    def _call_soon_1(self, fn, arg):  # Waiter's resume hook
        self.call_after(0.0, lambda: fn(arg))

    def _on_cancel(self):  # EventHandle.cancel's accounting hook: nothing to count
        pass

    # processes and waiters sit on top of post(): not what is under test, so
    # the real kernel's code for them runs on this scheduler
    now, waiter, run_for = Simulation.now, Simulation.waiter, Simulation.run_for
    spawn, processes = Simulation.spawn, Simulation.processes
    _step_process, _dispatch_yield = Simulation._step_process, Simulation._dispatch_yield

    def run(self, until=None, max_events=50_000_000):
        if self._running:
            raise SimError("run() is not reentrant")
        self._running, heap, fired = True, self._heap, 0
        try:
            while heap and heap[0][0] <= (_INF if until is None else until):
                entry = heapq.heappop(heap)
                t, _, fn, label, cancelled = entry
                if cancelled:
                    continue
                entry[2] = None  # fired: a later cancel() is a no-op
                self.clock.advance_to(t)
                if self.profiler is not None:
                    self.profiler.on_event(label or _component_of(fn), t)
                fn()
                fired += 1
                if fired > max_events:
                    raise SimError(f"exceeded max_events={max_events}")
            if until is not None and self.now() < until:
                self.clock.advance_to(until)
            return self.now()
        finally:
            self._running = False

    @property
    def pending_events(self):
        return sum(not entry[4] for entry in self._heap)

    def timer_stats(self):  # nothing ever parks
        return dict.fromkeys(("inserted", "rejected", "cascaded", "transferred"), 0)
