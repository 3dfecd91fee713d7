"""Tests for watch relays (fan-out trees)."""

import pytest

from repro._types import KeyRange
from repro.core.api import FnWatchCallback
from repro.core.bridge import DirectIngestBridge
from repro.core.linked_cache import (
    LinkedCache,
    LinkedCacheConfig,
    SnapshotUnavailable,
)
from repro.core.relay import WatchRelay
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.storage.kv import MVCCStore


@pytest.fixture
def pipeline(sim):
    store = MVCCStore(clock=sim.now)
    root = WatchSystem(sim, name="root")
    DirectIngestBridge(sim, store.history, root, progress_interval=0.2)

    def store_snapshot(kr):
        version = store.last_version
        return version, dict(store.scan(kr, version))

    relay = WatchRelay(
        sim, root, store_snapshot, KeyRange.all(),
        config=LinkedCacheConfig(snapshot_latency=0.02), name="relay",
    )
    relay.start()
    return store, root, relay


def make_downstream(sim, relay, key_range=KeyRange.all(), name="leaf"):
    cache = LinkedCache(
        sim, relay, relay.snapshot_for_downstream, key_range,
        config=LinkedCacheConfig(snapshot_latency=0.02), name=name,
    )
    cache.start()
    return cache


class TestRelayForwarding:
    def test_downstream_receives_updates(self, sim, pipeline):
        store, root, relay = pipeline
        sim.run_for(0.5)
        leaf = make_downstream(sim, relay)
        sim.run_for(0.5)
        store.put("k", "v")
        sim.run_for(1.0)
        assert leaf.get_latest("k") == "v"
        assert relay.fanout.active_watchers == 1

    def test_downstream_knowledge_opens(self, sim, pipeline):
        store, root, relay = pipeline
        sim.run_for(0.5)
        leaf = make_downstream(sim, relay)
        sim.run_for(0.5)
        v = store.put("k", "v")
        sim.run_for(1.0)
        assert leaf.read_at("k", v) == (True, "v")

    def test_snapshot_served_from_relay_state(self, sim, pipeline):
        store, root, relay = pipeline
        store.put("a", 1)
        sim.run_for(1.0)
        version, items = relay.snapshot_for_downstream(KeyRange.all())
        assert items == {"a": 1}
        assert version <= store.last_version

    def test_snapshot_unavailable_while_syncing(self, sim, pipeline):
        store, root, relay = pipeline
        # before the relay finishes its own sync
        with pytest.raises(SnapshotUnavailable):
            relay.snapshot_for_downstream(KeyRange.all())

    def test_downstream_retries_until_relay_ready(self, sim, pipeline):
        store, root, relay = pipeline
        store.put("k", "v")
        # start the leaf immediately — relay not yet synced
        leaf = make_downstream(sim, relay)
        sim.run_for(2.0)
        assert leaf.state == "watching"
        assert leaf.get_latest("k") == "v"


class TestRelayResyncPropagation:
    def test_root_wipe_resyncs_relay_and_floor_protects_leaves(self, sim, pipeline):
        store, root, relay = pipeline
        sim.run_for(0.5)
        leaf = make_downstream(sim, relay)
        sim.run_for(0.5)
        store.put("k", "v1")
        sim.run_for(0.5)
        root.wipe()                 # relay misses nothing yet, but must resync
        store.put("k", "v2")        # committed during the relay's resync
        sim.run_for(3.0)
        assert relay.resync_count == 1
        # the leaf converged despite the gap (resynced from the relay)
        assert leaf.get_latest("k") == "v2"
        assert leaf.resync_count >= 1

    def test_leaf_past_the_floor_survives_relay_resync(self, sim, pipeline):
        store, root, relay = pipeline
        sim.run_for(0.5)
        leaf = make_downstream(sim, relay)
        sim.run_for(0.5)
        store.put("k", "v1")
        sim.run_for(1.0)
        delivered_before = leaf.events_applied
        assert delivered_before >= 1

    def test_two_level_tree_composes(self, sim, pipeline):
        store, root, relay = pipeline
        sim.run_for(0.5)
        mid = WatchRelay(
            sim, relay, relay.snapshot_for_downstream, KeyRange.all(),
            config=LinkedCacheConfig(snapshot_latency=0.02), name="mid",
        )
        mid.start()
        sim.run_for(0.5)
        leaf = make_downstream(sim, mid, name="leaf2")
        sim.run_for(0.5)
        store.put("deep", "value")
        sim.run_for(1.0)
        assert leaf.get_latest("deep") == "value"


class TestFanOutOffload:
    def test_root_sessions_independent_of_leaf_count(self, sim, pipeline):
        store, root, relay = pipeline
        sim.run_for(0.5)
        leaves = [make_downstream(sim, relay, name=f"leaf-{i}") for i in range(10)]
        sim.run_for(0.5)
        assert root.active_watchers == 1      # just the relay
        assert relay.fanout.active_watchers == 10
        store.put("k", "v")
        sim.run_for(1.0)
        assert all(leaf.get_latest("k") == "v" for leaf in leaves)


class TestRaiseFloor:
    def test_raise_floor_resyncs_lagging_sessions_only(self, sim):
        ws = WatchSystem(sim)
        from repro._types import Mutation
        from repro.core.events import ChangeEvent

        fast_resyncs, slow_resyncs = [], []
        fast = FnWatchCallback(on_resync=lambda: fast_resyncs.append(True))
        slow = FnWatchCallback(on_resync=lambda: slow_resyncs.append(True))
        ws.watch_range(KeyRange.all(), 0, fast)
        for v in range(1, 6):
            ws.append(ChangeEvent("k", Mutation.put(v), v))
        sim.run_for(0.5)  # fast watcher has delivered up to v5
        ws.watch_range(KeyRange.all(), 4, slow)  # positioned at v4...
        ws.raise_floor(5)
        sim.run_for(0.5)
        assert fast_resyncs == []     # already past the floor
        assert slow_resyncs == [True]  # had not delivered v5 yet
        assert ws.retained_floor == 5
