"""Tests for range leases: single-holder safety, handoff gaps."""

import pytest

from repro.sharding.assignment import Assignment
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sharding.leases import LeaseManager


def desired(sim, manager, nodes, boundaries, generation=0):
    assignment = Assignment.even(nodes, boundaries, generation=generation)
    manager.on_assignment(assignment)
    return assignment


class TestAcquisition:
    def test_desired_owner_acquires(self, sim):
        lm = LeaseManager(sim)
        desired(sim, lm, ["a", "b"], ["m"])
        lease = lm.try_acquire("a", "c")
        assert lease is not None
        assert lm.holder("c") == "a"

    def test_wrong_node_cannot_acquire(self, sim):
        lm = LeaseManager(sim)
        desired(sim, lm, ["a", "b"], ["m"])
        assert lm.try_acquire("b", "c") is None  # "c" belongs to a

    def test_no_desired_assignment_no_lease(self, sim):
        lm = LeaseManager(sim)
        assert lm.try_acquire("a", "k") is None

    def test_renewal_extends(self, sim):
        lm = LeaseManager(sim)
        desired(sim, lm, ["a"], [])
        lm.try_acquire("a", "k")
        sim.run_for(0.75)
        lm.try_acquire("a", "k")  # renew
        sim.run_for(0.5)  # t=1.25 > original expiry 1.0
        assert lm.holder("k") == "a"

    def test_expiry_without_renewal(self, sim):
        lm = LeaseManager(sim)
        desired(sim, lm, ["a"], [])
        lm.try_acquire("a", "k")
        sim.run_for(1.5)
        assert lm.holder("k") is None


class TestHandoff:
    def test_new_owner_blocked_until_expiry(self, sim):
        lm = LeaseManager(sim)
        desired(sim, lm, ["a", "b"], ["m"])
        lm.try_acquire("a", "c")
        # sharder reassigns everything to b
        lm.on_assignment(Assignment.even(["b"], ["m"], generation=1))
        assert lm.try_acquire("b", "c") is None  # a's lease unexpired
        assert lm.holder("c") == "a"
        sim.run_for(1.25)
        # a's lease expired: there is now a gap...
        assert lm.holder("c") is None
        # ...until b acquires
        assert lm.try_acquire("b", "c") is not None
        assert lm.holder("c") == "b"

    def test_graceful_release_shortens_gap(self, sim):
        lm = LeaseManager(sim)
        desired(sim, lm, ["a", "b"], ["m"])
        lm.try_acquire("a", "c")
        lm.on_assignment(Assignment.even(["b"], ["m"], generation=1))
        assert lm.release("a", "c")
        assert lm.try_acquire("b", "c") is not None

    def test_stale_assignment_ignored(self, sim):
        lm = LeaseManager(sim)
        desired(sim, lm, ["a"], [], generation=5)
        lm.on_assignment(Assignment.even(["b"], [], generation=3))  # stale
        assert lm.try_acquire("a", "k") is not None


class TestSafetyInvariant:
    def test_at_most_one_holder_ever(self, sim):
        """Randomized churn: for any probed key at any instant, at most
        one unexpired lease covers it."""
        lm = LeaseManager(sim)
        sharder = AutoSharder(
            sim, ["a", "b", "c"],
            AutoSharderConfig(notify_latency=0.0, notify_jitter=0.0),
        )
        sharder.subscribe(lm.on_assignment)
        sim.run_for(0.1)
        probe_keys = ["akey", "gkey", "pkey", "zkey"]
        violations = []

        def check():
            for key in probe_keys:
                covering = [
                    lease for lease in lm.active_leases()
                    if lease.key_range.contains(key)
                ]
                if len(covering) > 1:
                    violations.append((sim.now(), key, covering))

        for step in range(120):
            node = "abc"[sim.rng.randrange(3)]
            key = probe_keys[sim.rng.randrange(4)]
            action = sim.rng.randrange(3)
            if action == 0:
                sharder.move_key(key, node)
            elif action == 1:
                lm.try_acquire(node, key)
            else:
                lm.release(node, key)
            sim.run_for(0.13)
            check()
        assert violations == []
