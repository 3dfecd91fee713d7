"""Relay compositions: partial ranges, sharded upstreams."""

import pytest

from repro._types import KeyRange
from repro.core.bridge import DirectIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.relay import WatchRelay
from repro.core.sharded_watch import ShardedWatchSystem
from repro.core.watch_system import WatchSystem
from repro.storage.kv import MVCCStore


def store_snapshot_fn(store):
    def snapshot_fn(kr):
        version = store.last_version
        return version, dict(store.scan(kr, version))

    return snapshot_fn


class TestPartialRangeRelay:
    def test_relay_covers_only_its_range(self, sim):
        store = MVCCStore(clock=sim.now)
        root = WatchSystem(sim)
        DirectIngestBridge(sim, store.history, root, progress_interval=0.2)
        relay = WatchRelay(
            sim, root, store_snapshot_fn(store), KeyRange("a", "m"),
            config=LinkedCacheConfig(snapshot_latency=0.01), name="partial",
        )
        relay.start()
        sim.run_for(0.5)
        leaf = LinkedCache(
            sim, relay, relay.snapshot_for_downstream, KeyRange("a", "m"),
            LinkedCacheConfig(snapshot_latency=0.01), name="leaf",
        )
        leaf.start()
        sim.run_for(0.5)
        store.put("bkey", 1)
        store.put("zkey", 2)  # outside the relay's range
        sim.run_for(1.0)
        assert leaf.get_latest("bkey") == 1
        assert leaf.get_latest("zkey") is None

    def test_downstream_snapshot_outside_relay_range_unavailable(self, sim):
        from repro.core.linked_cache import SnapshotUnavailable

        store = MVCCStore(clock=sim.now)
        root = WatchSystem(sim)
        DirectIngestBridge(sim, store.history, root, progress_interval=0.2)
        relay = WatchRelay(
            sim, root, store_snapshot_fn(store), KeyRange("a", "m"),
            config=LinkedCacheConfig(snapshot_latency=0.01), name="partial",
        )
        relay.start()
        store.put("bkey", 1)
        sim.run_for(1.0)
        with pytest.raises(SnapshotUnavailable):
            relay.snapshot_for_downstream(KeyRange("n", "z"))


class TestRelayOverShardedUpstream:
    def test_relay_spanning_shards(self, sim):
        store = MVCCStore(clock=sim.now)
        sws = ShardedWatchSystem(sim, even_ranges(3))
        DirectIngestBridge(sim, store.history, sws, progress_interval=0.2)
        relay = WatchRelay(
            sim, sws, store_snapshot_fn(store), KeyRange.all(),
            config=LinkedCacheConfig(snapshot_latency=0.01), name="over-shards",
        )
        relay.start()
        sim.run_for(0.5)
        leaf = LinkedCache(
            sim, relay, relay.snapshot_for_downstream, KeyRange.all(),
            LinkedCacheConfig(snapshot_latency=0.01), name="leaf",
        )
        leaf.start()
        sim.run_for(0.5)
        for i in range(30):
            store.put(f"{'amz'[i % 3]}key{i}", i)
        sim.run_for(2.0)
        assert leaf.data.items_latest() == dict(store.scan())
        # shard loss upstream: the relay resyncs once, then the floor
        # raise flows to the leaf
        sws.wipe_shard(1)
        store.put("mkey-after", "x")
        sim.run_for(3.0)
        assert relay.resync_count == 1
        assert leaf.data.items_latest() == dict(store.scan())
