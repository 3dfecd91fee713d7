"""Tests for the linked cache: sync, apply, knowledge, resync."""

import pytest

from repro._types import KeyRange
from repro.core.bridge import DirectIngestBridge, PartitionedIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig, SnapshotUnavailable
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.storage.kv import MVCCStore


def make_pipeline(sim, partitioned=False, **ws_kwargs):
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim, WatchSystemConfig(**ws_kwargs) if ws_kwargs else None)
    if partitioned:
        PartitionedIngestBridge(
            sim, store.history, ws, even_ranges(4), progress_interval=0.2
        )
    else:
        DirectIngestBridge(sim, store.history, ws, progress_interval=0.2)

    def snapshot_fn(kr):
        version = store.last_version
        return version, dict(store.scan(kr, version))

    return store, ws, snapshot_fn


class TestInitialSync:
    def test_snapshot_loaded(self, sim):
        store, ws, snap = make_pipeline(sim)
        store.put("a", 1)
        store.put("b", 2)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.1))
        cache.start()
        sim.run_for(1.0)
        assert cache.state == "watching"
        assert cache.get_latest("a") == 1
        assert cache.snapshots_taken == 1
        assert cache.knowledge.max_known_version() >= store.last_version - 1

    def test_double_start_rejected(self, sim):
        store, ws, snap = make_pipeline(sim)
        cache = LinkedCache(sim, ws, snap, KeyRange.all())
        cache.start()
        with pytest.raises(RuntimeError):
            cache.start()

    def test_unavailable_during_sync(self, sim):
        store, ws, snap = make_pipeline(sim)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=5.0))
        cache.start()
        sim.run_for(1.0)
        assert not cache.available
        sim.run_for(10.0)
        assert cache.available

    def test_unavailable_snapshot_source_is_retried_and_counted(self, sim):
        store, ws, snap = make_pipeline(sim)
        store.put("a", 1)
        refusals = [2]

        def refusing_snap(kr):
            if refusals[0]:
                refusals[0] -= 1
                raise SnapshotUnavailable("source mid-resync")
            return snap(kr)

        cache = LinkedCache(sim, ws, refusing_snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        assert cache.metrics.names() == []
        cache.start()
        sim.run_for(1.0)
        assert cache.available and cache.get_latest("a") == 1
        assert cache.snapshots_taken == 1
        assert cache.metrics.snapshot() == {"resilience.snapshot.retries": 2.0}


class TestEventApplication:
    def test_live_updates_applied(self, sim):
        store, ws, snap = make_pipeline(sim)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        store.put("x", 42)
        sim.run_for(1.0)
        assert cache.get_latest("x") == 42
        assert cache.events_applied == 1

    def test_deletes_applied(self, sim):
        store, ws, snap = make_pipeline(sim)
        store.put("x", 1)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        store.delete("x")
        sim.run_for(1.0)
        assert cache.get_latest("x") is None

    def test_range_scoped_cache(self, sim):
        store, ws, snap = make_pipeline(sim)
        cache = LinkedCache(sim, ws, snap, KeyRange("a", "m"),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        store.put("b", 1)
        store.put("x", 2)
        sim.run_for(1.0)
        assert cache.get_latest("b") == 1
        assert cache.get_latest("x") is None


class TestKnowledgeAndReads:
    def test_progress_opens_snapshot_reads(self, sim):
        store, ws, snap = make_pipeline(sim)
        store.put("a", 1)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        v2 = store.put("a", 2)
        sim.run_for(1.0)
        known, value = cache.read_at("a", v2)
        assert known and value == 2
        assert cache.snapshot_read(KeyRange.all(), v2) == dict(store.scan(version=v2))

    def test_unknown_version_refused(self, sim):
        store, ws, snap = make_pipeline(sim)
        store.put("a", 1)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        future = store.last_version + 100
        known, _ = cache.read_at("a", future)
        assert not known
        assert cache.snapshot_read(KeyRange.all(), future) is None

    def test_old_versions_readable_within_window(self, sim):
        store, ws, snap = make_pipeline(sim)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        base = store.last_version
        v1 = store.put("a", 1)
        v2 = store.put("a", 2)
        sim.run_for(1.0)
        assert cache.read_at("a", v1) == (True, 1)
        assert cache.read_at("a", v2) == (True, 2)


class TestResync:
    def test_wipe_triggers_full_recovery(self, sim):
        store, ws, snap = make_pipeline(sim)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.05))
        cache.start()
        sim.run_for(0.5)
        store.put("a", 1)
        sim.run_for(0.5)
        ws.wipe()
        store.put("a", 2)  # written while cache is resyncing
        sim.run_for(2.0)
        assert cache.resync_count == 1
        assert cache.state == "watching"
        assert cache.get_latest("a") == 2
        assert cache.recovery_times  # measured

    def test_eviction_resync_on_lagging_rewatch(self, sim):
        store, ws, snap = make_pipeline(sim, max_buffered_events=5)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        for i in range(20):
            store.put(f"k{i % 3}", i)
        sim.run_for(2.0)
        # live watcher kept up (no resync needed) — eviction only hurts
        # late joiners
        assert cache.get_latest("k0") == store.get("k0")

    def test_set_key_range_resyncs_over_new_range(self, sim):
        store, ws, snap = make_pipeline(sim)
        store.put("b", 1)
        store.put("x", 2)
        cache = LinkedCache(sim, ws, snap, KeyRange("a", "m"),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        assert cache.get_latest("x") is None
        cache.set_key_range(KeyRange("m", "z"))
        sim.run_for(0.5)
        assert cache.get_latest("x") == 2
        assert cache.get_latest("b") is None

    def test_stop_prevents_callbacks(self, sim):
        store, ws, snap = make_pipeline(sim)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        cache.stop()
        store.put("a", 1)
        sim.run_for(0.5)
        assert cache.get_latest("a") is None
        assert cache.state == "stopped"


class TestPartitionedPipeline:
    def test_mirror_matches_store_under_partitioned_ingest(self, sim):
        store, ws, snap = make_pipeline(sim, partitioned=True)
        cache = LinkedCache(sim, ws, snap, KeyRange.all(),
                            LinkedCacheConfig(snapshot_latency=0.01))
        cache.start()
        sim.run_for(0.5)
        for i in range(60):
            store.put(f"{'abcxyz'[i % 6]}key", i)
        sim.run_for(3.0)
        assert cache.data.items_latest() == dict(store.scan())
        # knowledge has range-scoped regions covering the keyspace
        assert cache.best_snapshot_version() is not None
