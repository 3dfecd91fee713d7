"""End-to-end integration: full pipelines across packages."""

import pytest

from repro._types import KeyRange, Mutation
from repro.cache.cluster import CacheCluster
from repro.cache.watch_cache import WatchCacheNode
from repro.cdc.publisher import CdcPublisher
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.snapshotter import SnapshotStitcher
from repro.core.watch_system import WatchSystem
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.replication.checker import SnapshotChecker
from repro.replication.target import ReplicaStore
from repro.replication.watch_replicator import WatchReplicator
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


class TestPubsubPipeline:
    def test_store_to_mirror_via_cdc(self, sim):
        """store -> CDC -> pubsub -> consumer mirror converges."""
        store = MVCCStore(clock=sim.now)
        broker = Broker(sim)
        broker.create_topic("cdc", num_partitions=4)
        CdcPublisher(sim, store.history, broker, "cdc")
        group = broker.consumer_group("cdc", "mirror")
        mirror = {}

        def handler(message):
            if message.payload["op"] == "delete":
                mirror.pop(message.key, None)
            else:
                mirror[message.key] = message.payload["value"]
            return True

        group.join(Consumer(sim, "m0", handler=handler, service_time=0.001))
        writer = WriteStream(
            sim, store, UniformKeys(sim, key_universe(30)), rate=50.0,
            delete_fraction=0.1,
        )
        writer.start()
        sim.call_at(5.0, writer.stop)
        sim.run(until=10.0)
        assert mirror == dict(store.scan())


class TestWatchPipeline:
    def test_store_to_stitched_cache_fleet(self, sim):
        """store -> partitioned ingest -> watch system -> auto-sharded
        cache fleet -> stitched snapshot equals the store."""
        store = MVCCStore(clock=sim.now)
        ws = WatchSystem(sim)
        PartitionedIngestBridge(
            sim, store.history, ws, even_ranges(4), progress_interval=0.2
        )
        sharder = AutoSharder(
            sim, ["n0", "n1", "n2"],
            AutoSharderConfig(notify_latency=0.01, notify_jitter=0.01),
        )
        nodes = [WatchCacheNode(sim, f"n{i}", store, ws) for i in range(3)]
        for node in nodes:
            sharder.subscribe(node.on_assignment)
        cluster = CacheCluster(sim, sharder, nodes, store)
        writer = WriteStream(
            sim, store, UniformKeys(sim, key_universe(60)), rate=80.0
        )
        writer.start()
        # churn ownership while writing
        def churn():
            for i in range(10):
                sharder.move_key(key_universe(60)[i * 6], f"n{i % 3}")
                yield Timeout(0.3)

        sim.spawn(churn())
        sim.call_at(6.0, writer.stop)
        sim.run(until=12.0)
        # zero stale entries under the watch protocol
        assert cluster.total_stale() == 0
        # stitch a global snapshot from the fleet's linked caches
        caches = [lc for node in nodes for lc in node._caches.values()]
        stitcher = SnapshotStitcher(caches)
        result = stitcher.stitch(KeyRange.all())
        assert result is not None
        assert result.items == dict(store.scan(version=result.version))


class TestHeterogeneousReplication:
    def test_watch_replication_with_source_churn_and_wipe(self, sim):
        """Replication keeps point-in-time consistency across a watch
        system wipe (soft-state recovery)."""
        store = MVCCStore(clock=sim.now)
        ws = WatchSystem(sim)
        PartitionedIngestBridge(
            sim, store.history, ws, even_ranges(3), progress_interval=0.2
        )
        target = ReplicaStore()
        checker = SnapshotChecker(store)
        checker.attach_target(target)
        replicator = WatchReplicator(
            sim, store, ws, target, even_ranges(3),
        )
        replicator.start()
        writer = WriteStream(
            sim, store, UniformKeys(sim, key_universe(40)), rate=60.0,
            delete_fraction=0.1,
        )
        sim.call_at(0.5, writer.start)
        sim.call_at(3.0, ws.wipe)
        sim.call_at(6.0, writer.stop)
        sim.run(until=15.0)
        assert replicator.resyncs >= 1
        assert checker.final_divergence(target) == []


class TestDeterminism:
    def test_identical_seeds_identical_outcomes(self):
        """The whole stack is deterministic per seed."""

        def run_once(seed):
            sim = Simulation(seed=seed)
            store = MVCCStore(clock=sim.now)
            ws = WatchSystem(sim)
            PartitionedIngestBridge(
                sim, store.history, ws, even_ranges(3),
                progress_interval=0.2,
            )
            cache = LinkedCache(
                sim, ws,
                lambda kr: (store.last_version, dict(store.scan(kr))),
                KeyRange.all(), LinkedCacheConfig(snapshot_latency=0.05),
            )
            cache.start()
            writer = WriteStream(
                sim, store, UniformKeys(sim, key_universe(20)), rate=40.0,
                delete_fraction=0.2,
            )
            writer.start()
            sim.call_at(4.0, writer.stop)
            sim.run(until=8.0)
            return (
                store.last_version,
                cache.events_applied,
                tuple(sorted(cache.data.items_latest().items())),
            )

        assert run_once(101) == run_once(101)
        assert run_once(101) != run_once(202)
