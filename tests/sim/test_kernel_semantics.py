"""Behavior-lock tests for the kernel's exact ordering contract.

These pin the semantics the hot-path optimizations (tuple heap entries,
zero-delay fast lane, pre-bound process trampolines, tombstone
compaction) must preserve byte-for-byte: same-timestamp FIFO order,
cancellation-while-queued, Waiter fire/late-attach ordering, and the
``run(until=...)`` boundary.  They were written against the
pre-optimization kernel and must never change.
"""

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
        assert h.cancelled

    def test_cancel_is_idempotent_and_tracked(self, sim):
        h = sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        h.cancel()
        h.cancel()
        assert h.cancelled
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
        event being fired — for parked timers sharing one wheel slot
        just as for heap and zero-delay events."""
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


class TestWaiterOrdering:
    def test_multiple_waiters_resume_in_wait_order(self, sim):
        order = []

        def proc(tag, waiter):
            value = yield waiter
            order.append((tag, value, sim.now()))

        waiter = sim.waiter()
        sim.spawn(proc("a", waiter))
        sim.spawn(proc("b", waiter))
        sim.spawn(proc("c", waiter))
        sim.call_after(1.0, lambda: waiter.fire("v"))
        sim.run()
        assert order == [("a", "v", 1.0), ("b", "v", 1.0), ("c", "v", 1.0)]

    def test_resumes_precede_events_scheduled_after_fire(self, sim):
        """fire() schedules resumes immediately; a zero-delay event
        scheduled *after* the fire() call runs after the resumes."""
        order = []

        def proc(tag, waiter):
            yield waiter
            order.append(tag)

        waiter = sim.waiter()
        sim.spawn(proc("w1", waiter))
        sim.spawn(proc("w2", waiter))

        def firer():
            waiter.fire()
            sim.call_after(0.0, lambda: order.append("after-fire"))

        sim.call_after(1.0, firer)
        sim.run()
        assert order == ["w1", "w2", "after-fire"]

    def test_late_attach_resumes_with_fired_value(self, sim):
        got = []

        def proc():
            value = yield waiter
            got.append((sim.now(), value))

        waiter = sim.waiter()
        waiter.fire(99)
        sim.spawn(proc())
        sim.run()
        assert got == [(0.0, 99)]
        assert waiter.fired and waiter.value == 99

    def test_second_fire_is_ignored(self, sim):
        got = []

        def proc():
            got.append((yield waiter))

        waiter = sim.waiter()
        sim.spawn(proc())
        sim.call_after(1.0, lambda: waiter.fire("first"))
        sim.call_after(2.0, lambda: waiter.fire("second"))
        sim.run()
        assert got == ["first"]
        assert waiter.value == "first"

    def test_fire_then_late_attach_ordering(self, sim):
        """A process attaching to an already-fired waiter resumes via a
        fresh zero-delay event, after anything already queued now."""
        order = []

        def late():
            yield waiter
            order.append("late")

        waiter = sim.waiter()
        waiter.fire()
        sim.call_after(0.0, lambda: order.append("queued"))
        sim.spawn(late())
        sim.run()
        # spawn itself queues after "queued"; the waiter is already
        # fired so the process resumes one zero-delay hop later
        assert order == ["queued", "late"]


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
