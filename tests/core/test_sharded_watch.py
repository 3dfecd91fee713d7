"""Tests for the sharded watch system."""

import pytest

from repro._types import KeyRange, Mutation
from repro.core.api import FnWatchCallback
from repro.core.bridge import DirectIngestBridge, even_ranges
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.sharded_watch import ShardedWatchSystem
from repro.storage.kv import MVCCStore


def change(key, version):
    return ChangeEvent(key, Mutation.put(version), version)


class TestConstruction:
    def test_requires_tiling_ranges(self, sim):
        with pytest.raises(ValueError):
            ShardedWatchSystem(sim, [KeyRange("", "m"), KeyRange("n", "\U0010ffff")])
        with pytest.raises(ValueError):
            ShardedWatchSystem(sim, [])

    def test_even_ranges_accepted(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(4))
        assert len(sws.shards) == 4


class TestRouting:
    def test_appends_route_by_key(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(4))
        sws.append(change("aardvark", 1))
        sws.append(change("zebra", 2))
        loads = sws.shard_loads()
        assert loads[0] == 1 and loads[-1] == 1
        assert sum(loads) == 2

    def test_progress_split_at_shard_boundaries(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(2))
        seen = []
        sws.watch_range(
            KeyRange.all(), 0,
            FnWatchCallback(on_progress=seen.append),
        )
        sws.progress(ProgressEvent("", "\U0010ffff", 9))
        sim.run_for(0.5)
        # one progress per shard, each clipped to its shard range
        assert len(seen) == 2
        assert {p.low for p in seen} == {"", even_ranges(2)[1].low}
        assert all(p.version == 9 for p in seen)


class TestCompositeWatch:
    def test_cross_shard_watch_sees_everything(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(4))
        events = []
        sws.watch_range(KeyRange.all(), 0, FnWatchCallback(on_event=events.append))
        for key in ("alpha", "mike", "zulu"):
            sws.append(change(key, len(events) + 1))
        sim.run_for(0.5)
        assert {e.key for e in events} == {"alpha", "mike", "zulu"}

    def test_narrow_watch_touches_one_shard(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(4))
        sws.watch_range(KeyRange("a", "b"), 0, FnWatchCallback())
        assert sum(s.active_watchers for s in sws.shards) == 1

    def test_cancel_cancels_all_subs(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(4))
        handle = sws.watch_range(KeyRange.all(), 0, FnWatchCallback())
        assert sum(s.active_watchers for s in sws.shards) == 4
        handle.cancel()
        assert sum(s.active_watchers for s in sws.shards) == 0

    def test_single_resync_on_shard_loss(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(4))
        resyncs = []
        events = []
        sws.watch_range(
            KeyRange.all(), 0,
            FnWatchCallback(
                on_event=events.append,
                on_resync=lambda: resyncs.append(True),
            ),
        )
        sws.wipe_shard(1)
        sim.run_for(0.5)
        assert resyncs == [True]  # exactly one, not four
        # the composite is dead: no further deliveries from any shard
        sws.append(change("zebra", 10))
        sim.run_for(0.5)
        assert events == []

    def test_shard_failure_isolated_to_its_watchers(self, sim):
        sws = ShardedWatchSystem(sim, even_ranges(2))
        left_resyncs, right_resyncs = [], []
        boundary = even_ranges(2)[1].low
        sws.watch_range(
            KeyRange("", boundary), 0,
            FnWatchCallback(on_resync=lambda: left_resyncs.append(True)),
        )
        sws.watch_range(
            KeyRange(boundary, "\U0010ffff"), 0,
            FnWatchCallback(on_resync=lambda: right_resyncs.append(True)),
        )
        sws.wipe_shard(0)
        sim.run_for(0.5)
        assert left_resyncs == [True]
        assert right_resyncs == []


class TestEndToEnd:
    def test_linked_cache_over_sharded_system(self, sim):
        store = MVCCStore(clock=sim.now)
        sws = ShardedWatchSystem(sim, even_ranges(3))
        DirectIngestBridge(sim, store.history, sws, progress_interval=0.2)

        def snapshot_fn(kr):
            version = store.last_version
            return version, dict(store.scan(kr, version))

        cache = LinkedCache(
            sim, sws, snapshot_fn, KeyRange.all(),
            LinkedCacheConfig(snapshot_latency=0.02),
        )
        cache.start()
        sim.run_for(0.5)
        for i in range(30):
            store.put(f"{'amz'[i % 3]}key{i}", i)
        sim.run_for(2.0)
        assert cache.data.items_latest() == dict(store.scan())
        assert cache.best_snapshot_version() is not None
