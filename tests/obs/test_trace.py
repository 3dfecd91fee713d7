"""Tracer: sim-clock stamping, store observation, payload versions."""

from repro.obs.trace import Tracer, hops, payload_version
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore


class TestRecord:
    def test_stamps_sim_time_and_seq(self):
        sim = Simulation(seed=1)
        tracer = Tracer(sim)
        tracer.record(hops.COMMIT, "store", key="a", version=1)
        sim.call_after(2.5, lambda: tracer.record(
            hops.CACHE_APPLY, "node-0", key="a", version=1))
        sim.run()
        events = list(tracer.log)
        assert [e.seq for e in events] == [0, 1]
        assert events[0].t == 0.0
        assert events[1].t == 2.5
        assert events[1].component == "node-0"

    def test_recording_schedules_nothing(self):
        # identical schedules with and without tracing: recording must
        # never touch the kernel heap or the sim RNG
        def drive(tracer):
            sim = Simulation(seed=7)
            order = []
            for i in range(5):
                delay = sim.rng.random()
                sim.call_after(delay, lambda i=i: (
                    order.append((i, sim.now())),
                    tracer and tracer.record(hops.COMMIT, "c", key="k", version=i),
                ))
            sim.run()
            return order

        traced_sim = Simulation(seed=99)
        assert drive(None) == drive(Tracer(traced_sim))

    def test_counts_into_metrics(self):
        sim = Simulation(seed=1)
        tracer = Tracer(sim)
        tracer.record(hops.COMMIT, "store", key="a", version=1)
        tracer.record(hops.COMMIT, "store", key="b", version=2)
        assert len(tracer.log) == 2
        assert [event.seq for event in tracer.log] == [0, 1]


class TestObserveStore:
    def test_mints_commit_roots_per_write(self):
        sim = Simulation(seed=1)
        store = MVCCStore(clock=sim.now)
        tracer = Tracer(sim)
        tracer.observe_store(store)
        store.put("a", {"v": 1})
        txn = store.transaction()
        txn.put("b", {"v": 2})
        txn.put("c", {"v": 3})
        txn.commit()
        events = list(tracer.log)
        assert [e.hop for e in events] == [hops.COMMIT] * 3
        assert {e.key for e in events} == {"a", "b", "c"}
        # the multi-key transaction shares one commit version
        assert events[1].version == events[2].version
        assert events[1].attrs["txn_size"] == 2

    def test_attach_after_prefill_excludes_prefill(self):
        sim = Simulation(seed=1)
        store = MVCCStore(clock=sim.now)
        store.put("prefill", {"v": 0})
        tracer = Tracer(sim)
        tracer.observe_store(store)
        store.put("live", {"v": 1})
        assert [e.key for e in tracer.log] == ["live"]

    def test_cancel_stops_observation(self):
        sim = Simulation(seed=1)
        store = MVCCStore(clock=sim.now)
        tracer = Tracer(sim)
        cancel = tracer.observe_store(store)
        store.put("a", {"v": 1})
        cancel()
        store.put("b", {"v": 2})
        assert [e.key for e in tracer.log] == ["a"]


class TestContext:
    def test_payload_version(self):
        assert payload_version({"version": 7}) == 7
        assert payload_version({"other": 7}) is None
        assert payload_version(b"opaque") is None
