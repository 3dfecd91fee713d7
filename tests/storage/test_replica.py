"""Tests for read replicas and replica-served resync snapshots."""

import pytest

from repro._types import KeyRange
from repro.core.bridge import DirectIngestBridge
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.storage.kv import MVCCStore
from repro.storage.replica import ReadReplica, SnapshotCounter


class TestReplication:
    def test_bootstrap_copies_current_state(self, sim):
        primary = MVCCStore(clock=sim.now)
        primary.put("a", 1)
        replica = ReadReplica(sim, primary, apply_lag=0.5)
        assert replica.snapshot_items() == {"a": 1}
        assert replica._applied_version == primary.last_version

    def test_follows_with_lag(self, sim):
        primary = MVCCStore(clock=sim.now)
        replica = ReadReplica(sim, primary, apply_lag=1.0)
        primary.put("a", 1)
        assert replica.snapshot_items() == {}  # not applied yet
        assert primary.last_version - replica._applied_version == 1
        sim.run_for(2.0)
        assert replica.snapshot_items() == {"a": 1}
        assert primary.last_version == replica._applied_version

    def test_zero_lag_is_synchronous(self, sim):
        primary = MVCCStore(clock=sim.now)
        replica = ReadReplica(sim, primary, apply_lag=0.0)
        primary.put("a", 1)
        assert replica.snapshot_items() == {"a": 1}

    def test_snapshot_is_internally_consistent(self, sim):
        """The replica's snapshot is the primary's state at the applied
        version — not a torn mixture."""
        from repro._types import Mutation

        primary = MVCCStore(clock=sim.now)
        replica = ReadReplica(sim, primary, apply_lag=0.5)
        primary.commit({"a": Mutation.put(1), "b": Mutation.put(1)})
        sim.run_for(1.0)
        primary.commit({"a": Mutation.put(2), "b": Mutation.put(2)})
        # mid-lag: the replica still shows the v1 transaction, atomically
        items = replica.snapshot_items()
        assert items in ({"a": 1, "b": 1}, {"a": 2, "b": 2})
        version, served = replica.serve_snapshot(KeyRange.all())
        assert served == dict(primary.scan(version=version))

    def test_invalid_lag(self, sim):
        with pytest.raises(ValueError):
            ReadReplica(sim, MVCCStore(), apply_lag=-1.0)


class TestReplicaServedResync:
    def test_stale_snapshot_plus_watch_converges(self, sim):
        """§4.2.1: resync from a stale replica snapshot, then the watch
        stream replays the suffix — no consistency loss."""
        primary = MVCCStore(clock=sim.now)
        ws = WatchSystem(sim)
        DirectIngestBridge(sim, primary.history, ws, progress_interval=0.2)
        replica = ReadReplica(sim, primary, apply_lag=2.0)  # very stale

        cache = LinkedCache(
            sim, ws, replica.serve_snapshot, KeyRange.all(),
            LinkedCacheConfig(snapshot_latency=0.01), name="c",
        )
        primary.put("a", 1)
        cache.start()
        sim.run_for(0.5)
        # the snapshot came from the replica, which had NOT applied a=1
        assert replica.snapshots_served == 1
        primary.put("b", 2)
        sim.run_for(3.0)
        # yet the cache converged: the watch stream covered the gap
        assert cache.data.items_latest() == dict(primary.scan())

    def test_load_shifts_to_replica(self, sim):
        primary = MVCCStore(clock=sim.now)
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=5))
        DirectIngestBridge(sim, primary.history, ws, progress_interval=0.2)
        counter = SnapshotCounter(primary)
        replica = ReadReplica(sim, primary, apply_lag=0.1)
        # two caches: one snapshots from the primary, one from the replica
        c1 = LinkedCache(sim, ws, counter.serve_snapshot, KeyRange.all(),
                         LinkedCacheConfig(snapshot_latency=0.01), name="p")
        c2 = LinkedCache(sim, ws, replica.serve_snapshot, KeyRange.all(),
                         LinkedCacheConfig(snapshot_latency=0.01), name="r")
        c1.start()
        c2.start()
        sim.run_for(0.5)
        ws.wipe()  # force both to resync
        sim.run_for(1.0)
        assert counter.snapshots_served == 2  # initial + resync
        assert replica.snapshots_served == 2
        for i in range(5):
            primary.put(f"k{i}", i)
        sim.run_for(2.0)
        assert c1.data.items_latest() == c2.data.items_latest() == dict(primary.scan())
