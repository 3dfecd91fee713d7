"""Behavior-lock tests for the kernel's exact ordering contract.

These pin the semantics the hot-path optimizations (tuple heap entries,
zero-delay fast lane, pre-bound process trampolines, tombstone
compaction) must preserve byte-for-byte: same-timestamp FIFO order,
cancellation-while-queued, the ``run(until=...)`` boundary, far timers
(seconds to hours out, the idle-session backoff pattern) firing in heap
order, and the contract of the ``Simulation.profiler`` hook.  They were written
against the pre-optimization kernel and must never change.
"""

import random

import pytest

from repro.sim.kernel import SimError, Simulation, Timeout


class TestSameTimestampFifo:
    def test_zero_delay_fires_in_scheduling_order(self, sim):
        fired = []
        for label in "abcdef":
            sim.call_after(0.0, lambda label=label: fired.append(label))
        sim.run()
        assert fired == list("abcdef")

    def test_zero_delay_interleaved_with_call_at_same_time(self, sim):
        """call_after(0) and call_at(now) at the same instant fire in
        global scheduling (seq) order, regardless of which internal
        queue each lands on."""
        fired = []
        sim.call_after(0.0, lambda: fired.append("z0"))
        sim.call_at(0.0, lambda: fired.append("a0"))
        sim.call_after(0.0, lambda: fired.append("z1"))
        sim.call_at(0.0, lambda: fired.append("a1"))
        sim.run()
        assert fired == ["z0", "a0", "z1", "a1"]

    def test_zero_delay_chains_scheduled_during_run(self, sim):
        """Zero-delay events scheduled by a firing event run after
        everything already queued at that time, in scheduling order."""
        fired = []

        def first():
            fired.append("first")
            sim.call_after(0.0, lambda: fired.append("child1"))
            sim.call_after(0.0, lambda: fired.append("child2"))

        sim.call_after(1.0, first)
        sim.call_after(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "child1", "child2"]

    def test_zero_delay_after_time_advance(self, sim):
        """The zero-delay lane stays correct across clock advances."""
        fired = []
        sim.call_after(0.0, lambda: fired.append(("t0", sim.now())))
        sim.call_after(2.0, lambda: sim.call_after(0.0, lambda: fired.append(("t2", sim.now()))))
        sim.run()
        assert fired == [("t0", 0.0), ("t2", 2.0)]

    def test_mixed_delays_sort_by_time_then_seq(self, sim):
        fired = []
        sim.call_after(1.0, lambda: fired.append("b"))
        sim.call_after(0.0, lambda: fired.append("a"))
        sim.call_after(1.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_spawn_order_is_fifo_with_zero_delay_events(self, sim):
        """spawn() uses the same zero-delay machinery as call_after(0):
        processes start interleaved with callbacks in scheduling order."""
        fired = []

        def proc(tag):
            fired.append(tag)
            yield Timeout(0.0)
            fired.append(tag + "'")

        sim.spawn(proc("p1"))
        sim.call_after(0.0, lambda: fired.append("cb"))
        sim.spawn(proc("p2"))
        sim.run()
        assert fired == ["p1", "cb", "p2", "p1'", "p2'"]


class TestCancellationWhileQueued:
    def test_cancel_middle_of_same_time_batch(self, sim):
        fired = []
        sim.call_after(1.0, lambda: fired.append("a"))
        h = sim.call_after(1.0, lambda: fired.append("b"))
        sim.call_after(1.0, lambda: fired.append("c"))
        h.cancel()
        sim.run()
        assert fired == ["a", "c"]

    def test_cancel_zero_delay_event(self, sim):
        fired = []
        h = sim.call_after(0.0, lambda: fired.append("x"))
        sim.call_after(0.0, lambda: fired.append("y"))
        h.cancel()
        sim.run()
        assert fired == ["y"]
        assert (h._sim is None)

    def test_cancel_is_idempotent_and_tracked(self, sim):
        h = sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        h.cancel()
        h.cancel()
        assert (h._sim is None)
        assert sim.pending_events == 1

    def test_cancel_during_run_before_event_fires(self, sim):
        fired = []
        h = sim.call_after(2.0, lambda: fired.append("late"))
        sim.call_after(1.0, h.cancel)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self, sim):
        fired = []
        h = sim.call_after(1.0, lambda: fired.append("x"))
        sim.run()
        h.cancel()  # must not corrupt accounting
        assert fired == ["x"]
        assert sim.pending_events == 0

    def test_pending_events_exact_under_churn(self, sim):
        """Heavy cancellation (the resilience-timer pattern) keeps
        pending_events exact, including zero-delay events."""
        handles = [sim.call_after(float(i % 7) * 0.5, lambda: None) for i in range(500)]
        for h in handles[::2]:
            h.cancel()
        assert sim.pending_events == 250
        for h in handles[1::2]:
            h.cancel()
        assert sim.pending_events == 0
        sim.run()
        assert sim.pending_events == 0

    def test_pending_events_exact_inside_callbacks(self, sim):
        """Read from a running callback, the count already excludes the
        event being fired — for far timers a few ms apart just as for
        near and zero-delay events."""
        seen = []
        for i in range(20):
            sim.call_after(10.0 + i * 0.01, lambda: seen.append(sim.pending_events))
        sim.call_after(0.1, lambda: seen.append(sim.pending_events))
        sim.post(0.0, lambda: seen.append(sim.pending_events))
        sim.run()
        assert seen == [21, 20] + list(range(19, -1, -1))

    def test_mass_cancel_preserves_survivor_order(self, sim):
        """Cancelling most of a same-time batch (tombstone churn) never
        reorders the survivors."""
        fired = []
        handles = []
        for i in range(200):
            handles.append(
                sim.call_after(1.0, lambda i=i: fired.append(i))
            )
        for i, h in enumerate(handles):
            if i % 10 != 0:
                h.cancel()
        sim.run()
        assert fired == list(range(0, 200, 10))


class TestRunUntilBoundary:
    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.call_after(5.0, lambda: fired.append("edge"))
        final = sim.run(until=5.0)
        assert fired == ["edge"]
        assert final == 5.0

    def test_event_after_until_stays_queued(self, sim):
        fired = []
        sim.call_after(5.0, lambda: fired.append("edge"))
        sim.call_after(5.000001, lambda: fired.append("beyond"))
        sim.run(until=5.0)
        assert fired == ["edge"]
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["edge", "beyond"]

    def test_zero_delay_scheduled_at_until_fires_same_run(self, sim):
        """An event firing at until that schedules call_after(0) keeps
        running at until (time not > until)."""
        fired = []
        sim.call_after(5.0, lambda: sim.call_after(0.0, lambda: fired.append("chained")))
        sim.run(until=5.0)
        assert fired == ["chained"]
        assert sim.now() == 5.0

    def test_until_with_empty_heap_advances_clock(self, sim):
        assert sim.run(until=3.0) == 3.0
        assert sim.now() == 3.0

    def test_run_resumes_from_until(self, sim):
        times = []
        sim.call_after(1.0, lambda: times.append(sim.now()))
        sim.call_after(4.0, lambda: times.append(sim.now()))
        sim.run(until=2.0)
        sim.run()
        assert times == [1.0, 4.0]

    def test_cannot_schedule_before_until_after_run(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimError):
            sim.call_at(4.0, lambda: None)
        # zero-delay scheduling at the new clock is fine
        fired = []
        sim.call_after(0.0, lambda: fired.append("ok"))
        sim.run()
        assert fired == ["ok"]


_SCHEDULERS = {
    "call_at": lambda sim, t: sim.call_at(t, lambda: None),
    "call_after": lambda sim, t: sim.call_after(t, lambda: None),
    "post": lambda sim, t: sim.post(t, lambda: None),
    "call_at_seq": lambda sim, t: sim.call_at_seq(t, sim.next_seq(), lambda: None),
    "Timeout": lambda sim, t: Timeout(t),
}


class TestReservedSlots:
    def test_call_at_seq_rejects_the_past(self, sim):
        seq = sim.next_seq()
        sim.run(until=2.0)
        with pytest.raises(SimError):
            sim.call_at_seq(1.0, seq, lambda: None)
        assert sim.pending_events == 0

    def test_reserved_slot_keeps_its_place_among_later_draws(self, sim):
        fired = []
        early = sim.next_seq()
        sim.post(0.0, lambda: fired.append("post"))
        sim.call_after(0.0, lambda: fired.append("after"))
        sim.call_at(0.0, lambda: fired.append("at"))
        sim.call_at_seq(0.0, early, lambda: fired.append("reserved"))
        handle = sim.call_at_seq(1.0, sim.next_seq(), lambda: fired.append("gone"))
        handle.cancel()
        assert sim.pending_events == 4
        sim.run()
        assert fired == ["reserved", "post", "after", "at"]
        assert sim.now() == 0.0


class TestNonFiniteTimes:
    @pytest.mark.parametrize("how", sorted(_SCHEDULERS))
    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_rejected_at_the_scheduling_call(self, sim, how, t):
        """inf/nan fail where they are passed in, queue nothing, and
        leave the kernel usable (they used to blow up inside the next —
        and every later — run())."""
        with pytest.raises(SimError):
            _SCHEDULERS[how](sim, t)
        assert sim.pending_events == 0
        fired = []
        sim.call_after(1.0, lambda: fired.append(sim.now()))
        assert sim.run() == 1.0
        assert fired == [1.0]


class TestFarTimers:
    def test_mixed_near_far_timers_fire_in_heap_order(self, sim):
        """Random near+far timers fire exactly as a reference heap would."""
        rng = random.Random(7)
        fired = []
        expected = []
        for i in range(2000):
            # sub-second, tens of seconds and minutes out
            delay = rng.choice(
                [rng.uniform(0, 0.2), rng.uniform(0.3, 30.0), rng.uniform(70.0, 900.0)]
            )
            t = round(delay, 6)
            expected.append((t, i))
            sim.call_after(t, (lambda j: (lambda: fired.append(j)))(i))
        sim.run()
        expected.sort()
        assert fired == [i for (_, i) in expected]

    def test_same_time_ties_break_by_schedule_order(self, sim):
        """Entries sharing a timestamp fire in schedule (seq) order,
        whether scheduled far ahead or near it."""
        fired = []
        sim.call_after(10.0, lambda: fired.append("far-a"))
        sim.call_after(10.0, lambda: fired.append("far-b"))
        sim.call_after(0.5, lambda: sim.call_after(9.5, lambda: fired.append("late")))
        sim.run()
        assert fired == ["far-a", "far-b", "late"]

    def test_cancel_far_timer_never_fires(self, sim):
        fired = []
        handle = sim.call_after(50.0, lambda: fired.append("far"))
        sim.call_after(60.0, lambda: fired.append("sentinel"))
        sim.call_after(1.0, handle.cancel)
        sim.run()
        assert fired == ["sentinel"]
        assert sim.pending_events == 0

    def test_cancel_and_reschedule_far_timer(self, sim):
        """Cancelling a far timer and rescheduling it earlier fires the
        replacement at the new time only."""
        fired = []
        handle = sim.call_after(100.0, lambda: fired.append(("old", sim.now())))

        def swap():
            handle.cancel()
            sim.call_after(2.0, lambda: fired.append(("new", sim.now())))

        sim.call_after(1.0, swap)
        sim.run()
        assert fired == [("new", 3.0)]

    def test_mass_cancellation_compacts_far_tombstones(self, sim):
        """Cancelling most far timers triggers compaction (tombstone
        accounting stays exact)."""
        fired = []
        handles = [
            sim.call_after(200.0 + i * 0.01, lambda: fired.append("x"))
            for i in range(4000)
        ]
        keep = handles[::100]
        for i, handle in enumerate(handles):
            if i % 100:
                handle.cancel()
        assert len(sim._heap) < len(handles) // 2  # compacted, not drained
        sim.run()
        assert fired == ["x"] * len(keep)
        assert sim.pending_events == 0

    def test_pending_events_counts_far_timers(self, sim):
        sim.call_after(100.0, lambda: None)
        sim.call_after(0.001, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_far_timer_after_long_idle(self, sim):
        """After hours of simulated idle, a fresh far timer still fires
        at the right instant."""
        fired = []

        def late_schedule():
            sim.call_after(30.0, lambda: fired.append(sim.now()))

        sim.call_after(7200.0, late_schedule)
        sim.run()
        assert fired == [7230.0]

    def test_interleaved_schedules_match_between_two_kernels(self):
        """The same near/far schedule replayed on two fresh kernels
        fires identically (determinism bar: byte-identical experiment
        output)."""

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


class TestDeterministicReplay:
    def test_identical_seeds_identical_schedules(self):
        def drive(sim):
            log = []

            def proc(tag):
                for _ in range(5):
                    yield Timeout(sim.rng.random())
                    log.append((tag, round(sim.now(), 9)))

            for i in range(4):
                sim.spawn(proc(f"p{i}"))
            for i in range(10):
                sim.call_after(sim.rng.random() * 2, lambda i=i: log.append(("cb", i)))
            h = sim.call_after(1.5, lambda: log.append(("never", 0)))
            sim.call_after(0.5, h.cancel)
            sim.run()
            return log

        assert drive(Simulation(seed=42)) == drive(Simulation(seed=42))


class _RecordingHook:
    """A minimal ``Simulation.profiler`` hook: logs what the kernel reports."""

    def __init__(self):
        self.seen = []

    def on_event(self, component, t):
        self.seen.append((component, t))


class TestProfilerHook:
    def test_unlabelled_events_fall_back_to_module(self, sim):
        sim.profiler = hook = _RecordingHook()
        sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None, label="alpha")
        sim.run()
        assert hook.seen == [(__name__, 1.0), ("alpha", 2.0)]

    def test_attaching_a_hook_leaves_the_schedule_unchanged(self):
        def run(with_hook):
            sim = Simulation(seed=5)
            if with_hook:
                sim.profiler = _RecordingHook()
            fired = []
            for i in range(10):
                sim.call_after(sim.rng.random(), lambda i=i: fired.append(
                    (i, sim.now())))
            sim.run()
            return fired

        assert run(False) == run(True)
