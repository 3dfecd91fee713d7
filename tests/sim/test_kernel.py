"""Tests for the discrete-event kernel: ordering, processes, waiters."""

import pytest

from repro.sim.kernel import ProcessExit, SimError, Simulation, Timeout


class TestScheduling:
    def test_call_after_fires_in_order(self, sim):
        fired = []
        sim.call_after(2.0, lambda: fired.append("b"))
        sim.call_after(1.0, lambda: fired.append("a"))
        sim.call_after(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, sim):
        fired = []
        for label in "abcde":
            sim.call_after(1.0, lambda label=label: fired.append(label))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.call_after(2.5, lambda: times.append(sim.now()))
        sim.run()
        assert times == [2.5]

    def test_cannot_schedule_in_past(self, sim):
        sim.call_after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            sim.call_after(-1.0, lambda: None)

    def test_cancellation(self, sim):
        fired = []
        handle = sim.call_after(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert (handle._sim is None)

    def test_run_until_stops_clock_at_until(self, sim):
        fired = []
        sim.call_after(10.0, lambda: fired.append("late"))
        final = sim.run(until=5.0)
        assert final == 5.0
        assert fired == []
        # the event is still queued and fires on the next run
        sim.run()
        assert fired == ["late"]

    def test_run_for(self, sim):
        sim.call_after(1.0, lambda: None)
        sim.run_for(3.0)
        assert sim.now() == 3.0

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def first():
            sim.call_after(1.0, lambda: fired.append("second"))

        sim.call_after(1.0, first)
        sim.run()
        assert fired == ["second"]

    def test_pending_events_counts_noncancelled(self, sim):
        h1 = sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events == 1

    def test_max_events_guard(self, sim):
        def loop():
            sim.call_after(0.0, loop)

        sim.call_after(0.0, loop)
        with pytest.raises(SimError):
            sim.run(max_events=100)

    def test_run_not_reentrant(self, sim):
        def nested():
            with pytest.raises(SimError):
                sim.run()

        sim.call_after(1.0, nested)
        sim.run()


class TestProcesses:
    def test_timeout_yields(self, sim):
        trace = []

        def proc():
            trace.append(("start", sim.now()))
            yield Timeout(2.0)
            trace.append(("after", sim.now()))

        sim.spawn(proc())
        sim.run()
        assert trace == [("start", 0.0), ("after", 2.0)]

    def test_numeric_yield_is_timeout(self, sim):
        times = []

        def proc():
            yield 1.5
            times.append(sim.now())

        sim.spawn(proc())
        sim.run()
        assert times == [1.5]

    def test_return_value_captured(self, sim):
        def proc():
            yield Timeout(1.0)
            return 42

        handle = sim.spawn(proc())
        sim.run()
        assert handle.done
        assert handle.result == 42

    def test_process_exit(self, sim):
        def proc():
            yield Timeout(1.0)
            raise ProcessExit()

        handle = sim.spawn(proc())
        sim.run()
        assert handle.done

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimError):
            Timeout(-0.1)

    def test_bad_yield_raises(self, sim):
        def proc():
            yield "nonsense"

        sim.spawn(proc())
        with pytest.raises(SimError):
            sim.run()

    def test_process_error_propagates(self, sim):
        def proc():
            yield Timeout(1.0)
            raise ValueError("boom")

        handle = sim.spawn(proc())
        with pytest.raises(ValueError):
            sim.run()
        assert handle.done
        assert isinstance(handle.error, ValueError)

class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace_run(seed):
            sim = Simulation(seed=seed)
            trace = []

            def proc():
                for _ in range(20):
                    yield Timeout(sim.rng.random())
                    trace.append(round(sim.now(), 9))

            sim.spawn(proc())
            sim.run()
            return trace

        assert trace_run(42) == trace_run(42)
        assert trace_run(42) != trace_run(43)
