"""Timer-wheel semantics: the wheel must be invisible.

The hard invariant (ISSUE 7 / docs/scale.md): a kernel with the wheel
fires events in **exactly** the global ``(time, seq)`` order a plain
heap would — the wheel parks far timers, it never orders them.  These
tests compare wheel-routed schedules against a reference heap, exercise
cancel/reschedule through parked entries, and pin determinism under
``PYTHONHASHSEED=0`` (conftest sets it for the whole suite).
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.sim.kernel import Simulation
from repro.sim.timerwheel import TimerWheel

_CANCELLED = 4


def _drain_order(sim: Simulation, until: float):
    fired = []

    def mk(tag):
        return lambda: fired.append((sim.now(), tag))

    return fired, mk


# ----------------------------------------------------------------------
# firing order vs a reference heap


def test_mixed_near_far_timers_fire_in_heap_order():
    """Random near+far timers fire exactly as a reference heap would."""
    rng = random.Random(7)
    sim = Simulation()
    fired = []
    expected = []
    for i in range(2000):
        # spread across the near/level-0/level-1 routing regimes
        delay = rng.choice(
            [rng.uniform(0, 0.2), rng.uniform(0.3, 30.0), rng.uniform(70.0, 900.0)]
        )
        t = round(delay, 6)
        expected.append((t, i))
        sim.call_after(t, (lambda j: (lambda: fired.append(j)))(i))
    sim.run()
    expected.sort()
    assert fired == [i for (_, i) in expected]
    # the sweep must actually exercise the wheel, not bypass it
    assert sim.timer_stats()["inserted"] > 0
    assert sim.timer_stats()["transferred"] > 0


def test_same_time_ties_break_by_schedule_order():
    """Entries sharing a timestamp fire in schedule (seq) order even
    when one was parked and one went straight to the heap."""
    sim = Simulation()
    fired = []
    # far first (parked), then near timers landing at the same instant
    sim.call_after(10.0, lambda: fired.append("far-a"))
    sim.call_after(10.0, lambda: fired.append("far-b"))
    sim.call_after(0.5, lambda: sim.call_after(9.5, lambda: fired.append("late")))
    sim.run()
    assert fired == ["far-a", "far-b", "late"]


def test_interleaved_schedules_match_between_two_kernels():
    """The same schedule replayed twice fires identically (determinism
    bar: byte-identical experiment output)."""

    def run_once():
        rng = random.Random(13)
        sim = Simulation()
        fired = []

        def spawn(depth):
            if depth > 300:
                return
            delay = rng.choice([0.0, 0.001, 0.01, 1.5, 40.0, 300.0])
            sim.call_after(
                delay, lambda: (fired.append((sim.now(), depth)), spawn(depth + 1))
            )

        for _ in range(5):
            spawn(0)
        sim.run()
        return fired

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# cancel / reschedule through parked entries


def test_cancel_parked_timer_never_fires():
    sim = Simulation()
    fired = []
    handle = sim.call_after(50.0, lambda: fired.append("parked"))
    sim.call_after(60.0, lambda: fired.append("sentinel"))
    sim.call_after(1.0, handle.cancel)
    sim.run()
    assert fired == ["sentinel"]
    assert sim.pending_events == 0


def test_cancel_and_reschedule_far_timer():
    """Cancelling a parked timer and rescheduling it earlier fires the
    replacement at the new time only."""
    sim = Simulation()
    fired = []
    handle = sim.call_after(100.0, lambda: fired.append(("old", sim.now())))

    def swap():
        handle.cancel()
        sim.call_after(2.0, lambda: fired.append(("new", sim.now())))

    sim.call_after(1.0, swap)
    sim.run()
    assert fired == [("new", 3.0)]


def test_mass_cancellation_compacts_parked_tombstones():
    """Cancelling most parked timers triggers kernel compaction that
    scrubs wheel buckets too (tombstone accounting stays exact)."""
    sim = Simulation()
    fired = []
    handles = [
        sim.call_after(200.0 + i * 0.01, lambda: fired.append("x"))
        for i in range(4000)
    ]
    keep = handles[::100]
    for i, handle in enumerate(handles):
        if i % 100:
            handle.cancel()
    sim.run()
    assert fired == ["x"] * len(keep)
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# unit-level wheel behaviour (routing, cascade, horizon)


def _entry(t, seq):
    return [t, seq, None, None, False]


def test_wheel_rejects_near_and_past_entries():
    wheel = TimerWheel(origin=0.0, resolution=0.25, slots=8, levels=2)
    assert wheel.insert(_entry(0.1, 0), now=0.0) is False  # inside cur slot
    assert wheel.insert(_entry(0.26, 1), now=0.0) is True  # next slot
    assert wheel.rejected == 1 and wheel.inserted == 1


def test_wheel_rejects_beyond_horizon():
    wheel = TimerWheel(origin=0.0, resolution=0.25, slots=8, levels=2)
    horizon = 0.25 * 8 * 8  # spans[-1] ticks
    assert wheel.insert(_entry(horizon + 1.0, 0), now=0.0) is False
    assert wheel.rejected == 1


def test_wheel_transfer_is_sorted_by_heap():
    """advance() hands a due slot to the heap unsorted; heappush order
    still yields (time, seq) order on pop."""
    wheel = TimerWheel(origin=0.0, resolution=0.25, slots=8, levels=2)
    entries = [_entry(0.30, 3), _entry(0.27, 1), _entry(0.30, 2)]
    for entry in entries:
        assert wheel.insert(entry, now=0.0)
    heap: list = []
    dropped = wheel.advance(bound=1.0, heap=heap)
    assert dropped == 0
    assert wheel.size == 0
    popped = [heapq.heappop(heap)[:2] for _ in range(len(heap))]
    assert popped == sorted(popped)


def test_wheel_cascade_settles_far_entry_through_levels():
    """A top-level entry cascades level 2 -> 1 -> 0 as the wheel turns
    (coarsest-first within one advance) and reaches the heap exactly
    once, at its due slot."""
    wheel = TimerWheel(origin=0.0, resolution=0.25, slots=4, levels=3)
    entry = _entry(5.3, 0)  # 21 ticks: level 2 (delta in [16, 64))
    assert wheel.insert(entry, now=0.0)
    assert wheel._counts[2] == 1
    heap: list = []
    dropped = wheel.advance(bound=5.3, heap=heap)
    assert dropped == 0
    assert [e[1] for e in heap] == [0]
    assert wheel.size == 0
    assert wheel.cascaded == 2  # level 2 -> 1, then 1 -> 0


def test_wheel_advance_stops_at_heap_head():
    """advance() must not transfer slots past the heap head: the heap's
    earliest event is a lower bound on what fires next."""
    wheel = TimerWheel(origin=0.0, resolution=0.25, slots=8, levels=2)
    parked = _entry(1.6, 1)
    assert wheel.insert(parked, now=0.0)
    heap = [_entry(0.9, 0)]
    wheel.advance(bound=5.0, heap=heap)
    # heap head (0.9) precedes the parked slot (1.5): nothing moves
    assert wheel.size == 1
    heap.clear()
    wheel.advance(bound=5.0, heap=heap)
    assert wheel.size == 0 and [e[1] for e in heap] == [1]


def test_wheel_compact_drops_cancelled_parked_entries():
    wheel = TimerWheel(origin=0.0, resolution=0.25, slots=8, levels=2)
    entries = [_entry(1.0 + i * 0.25, i) for i in range(6)]
    for entry in entries:
        assert wheel.insert(entry, now=0.0)
    for entry in entries[::2]:
        entry[_CANCELLED] = True
    dropped = wheel.compact()
    assert dropped == 3
    assert wheel.size == 3


def test_wheel_validates_parameters():
    with pytest.raises(ValueError):
        TimerWheel(resolution=0.0)
    with pytest.raises(ValueError):
        TimerWheel(slots=1)
    with pytest.raises(ValueError):
        TimerWheel(levels=0)


# ----------------------------------------------------------------------
# kernel-level integration invariants


def test_pending_events_counts_parked_timers():
    sim = Simulation()
    sim.call_after(100.0, lambda: None)
    sim.call_after(0.001, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_wheel_empty_fast_forward_after_long_idle():
    """After hours of simulated idle, a freshly parked timer still
    fires at the right instant (the wheel fast-forwards, it does not
    walk idle slots)."""
    sim = Simulation()
    fired = []

    def late_schedule():
        sim.call_after(30.0, lambda: fired.append(sim.now()))

    sim.call_after(7200.0, late_schedule)
    sim.run()
    assert fired == [7230.0]
