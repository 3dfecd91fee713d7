"""Tests for the watch-based replicator: scaling with consistency."""

import pytest

from repro._types import Mutation
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.replication.checker import SnapshotChecker
from repro.replication.target import ReplicaStore
from repro.replication.watch_replicator import WatchReplicator
from repro.storage.kv import MVCCStore


def build(sim, ranges_n=4):
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim)
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(ranges_n), progress_interval=0.2
    )
    target = ReplicaStore()
    checker = SnapshotChecker(store)
    checker.attach_target(target)
    replicator = WatchReplicator(
        sim, store, ws, target, even_ranges(ranges_n),
    )
    return store, ws, target, checker, replicator


class TestBasicReplication:
    def test_initial_snapshot_installed(self, sim):
        store, ws, target, checker, replicator = build(sim)
        store.put("a", 1)
        store.put("b", 2)
        replicator.start()
        sim.run_for(1.0)
        assert target.items() == {"a": 1, "b": 2}
        assert checker.violations == 0

    def test_live_replication_converges(self, sim):
        store, ws, target, checker, replicator = build(sim)
        replicator.start()
        sim.run_for(0.5)
        for i in range(80):
            key = f"{'abcxyz'[i % 6]}key"
            if i % 9 == 4:
                store.delete(key)
            else:
                store.put(key, i)
        sim.run_for(5.0)
        assert checker.final_divergence(target) == []
        assert replicator.lag() == 0

    def test_double_start_rejected(self, sim):
        store, ws, target, checker, replicator = build(sim)
        replicator.start()
        with pytest.raises(RuntimeError):
            replicator.start()


class TestPointInTimeConsistency:
    def test_externalizes_only_source_states(self, sim):
        """The headline: concurrent range watchers, zero snapshot
        violations, because the target only advances at progress
        barriers, per source version."""
        store, ws, target, checker, replicator = build(sim)
        replicator.start()
        sim.run_for(0.5)
        # multi-key transactions spanning ranges
        for i in range(40):
            store.commit({
                f"a{i:03d}": Mutation.put(i),
                f"z{i:03d}": Mutation.put(-i),
            })
        sim.run_for(5.0)
        assert checker.violations == 0
        assert checker.regressions == 0
        assert target.items() == dict(store.scan())

    def test_txns_externalized_in_version_order(self, sim):
        store, ws, target, checker, replicator = build(sim)
        replicator.start()
        sim.run_for(0.5)
        for i in range(20):
            store.put("k", i)
        sim.run_for(5.0)
        assert replicator.txns_externalized >= 20
        assert replicator._externalized == store.last_version

    def test_staging_is_not_externalized(self, sim):
        """Events sit in staging between progress ticks — the target
        must not show them early."""
        store, ws, target, checker, replicator = build(sim)
        replicator.start()
        sim.run_for(0.5)
        store.put("k", "v")
        sim.run_for(0.01)  # event likely staged, progress not yet
        if any(replicator._staged.values()):
            assert target.get("k") is None
        sim.run_for(2.0)
        assert target.get("k") == "v"


class TestLagAndBacklog:
    def test_lag_reports_distance(self, sim):
        store, ws, target, checker, replicator = build(sim)
        replicator.start()
        sim.run_for(0.5)
        for i in range(20):
            store.put(f"{'abcz'[i % 4]}k", i)
        assert replicator.lag() > 0
        sim.run_for(60.0)
        assert replicator.lag() == 0
