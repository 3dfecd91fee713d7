"""Tests for failure injection."""

import pytest

from repro.sim.failures import FailureInjector


class FakeComponent:
    def __init__(self):
        self.up = True
        self.transitions = []

    def crash(self):
        self.up = False
        self.transitions.append("crash")

    def recover(self):
        self.up = True
        self.transitions.append("recover")


class TestOutage:
    def test_outage_crashes_and_recovers(self, sim):
        comp = FakeComponent()
        injector = FailureInjector(sim)
        injector.outage(comp, "c", start=1.0, duration=2.0)
        sim.run(until=0.5)
        assert comp.up
        sim.run(until=1.5)
        assert not comp.up
        sim.run(until=4.0)
        assert comp.up
        assert comp.transitions == ["crash", "recover"]

    def test_zero_duration_rejected(self, sim):
        with pytest.raises(ValueError):
            FailureInjector(sim).outage(FakeComponent(), "c", 1.0, 0.0)

    def test_fault_log(self, sim):
        injector = FailureInjector(sim)
        fault = injector.outage(FakeComponent(), "c", 1.0, 2.0)
        assert fault.kind == "outage"
        assert fault.start == 1.0
        assert fault.end == 3.0
        assert injector.log == [fault]

    def test_permanent_crash(self, sim):
        comp = FakeComponent()
        injector = FailureInjector(sim)
        injector.crash_at(comp, "c", 2.0)
        sim.run(until=100.0)
        assert not comp.up
        assert comp.transitions == ["crash"]


class TestPartitionWindow:
    def test_partition_opens_and_heals(self, sim):
        from repro.sim.network import Network

        net = Network(sim)
        injector = FailureInjector(sim)
        fault = injector.partition_window(net, "a", "b", start=1.0, duration=2.0)
        sim.run(until=0.5)
        assert ("a", "b") not in net._partitions
        sim.run(until=1.5)
        assert ("a", "b") in net._partitions
        assert ("b", "a") in net._partitions
        sim.run(until=4.0)
        assert ("a", "b") not in net._partitions
        assert fault.kind == "partition"
        assert fault.target == "a<->b"
        assert fault.end == 3.0
        assert injector.log == [fault]
        assert injector.metrics.snapshot() == {
            "faults.heals": 1.0, "faults.partitions": 1.0,
        }

    def test_zero_duration_rejected(self, sim):
        from repro.sim.network import Network

        with pytest.raises(ValueError):
            FailureInjector(sim).partition_window(
                Network(sim), "a", "b", 1.0, 0.0
            )


class TestRandomOutages:
    def test_outages_within_horizon_and_nonoverlapping(self, sim):
        comp = FakeComponent()
        injector = FailureInjector(sim)
        faults = injector.random_outages(
            comp, "c", horizon=1000.0, mean_interval=50.0, mean_duration=5.0
        )
        assert faults, "expected at least one outage at this rate"
        for fault in faults:
            assert 0 <= fault.start < 1000.0
            assert fault.end <= 1000.0 + 1e-9
        for a, b in zip(faults, faults[1:]):
            assert b.start >= a.end
        sim.run(until=2000.0)
        assert comp.up  # last outage recovered
        crashes = comp.transitions.count("crash")
        recoveries = comp.transitions.count("recover")
        assert crashes == recoveries == len(faults)

    def test_invalid_params(self, sim):
        injector = FailureInjector(sim)
        with pytest.raises(ValueError):
            injector.random_outages(FakeComponent(), "c", 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            injector.random_outages(FakeComponent(), "c", 10.0, 1.0, -1.0)

    def test_deterministic_per_seed(self):
        from repro.sim.kernel import Simulation

        def starts(seed):
            sim = Simulation(seed=seed)
            injector = FailureInjector(sim)
            faults = injector.random_outages(
                FakeComponent(), "c", 500.0, 20.0, 2.0
            )
            return [f.start for f in faults]

        assert starts(7) == starts(7)
