"""The kitchen sink: every subsystem at once, invariants at the end.

One producer store drives, simultaneously:

- a pubsub CDC pipeline with a consumer-group mirror (with an outage);
- an external watch system (partitioned ingest) feeding
  - an auto-sharded watch-cache fleet (with handoffs),
  - a watch replicator into a checked target,
  - a relay with downstream leaves;
- a read replica serving resync snapshots;
- periodic soft-state destruction (wipe) of the watch system.

At quiescence: the replicated target is point-in-time consistent and
byte-equal; every watch consumer converged; the pubsub mirror's
divergence is exactly explained by its silent GC loss being nonzero (or
zero loss → zero divergence).
"""

import pytest

from repro._types import KeyRange
from repro.cache.cluster import CacheCluster
from repro.cache.watch_cache import WatchCacheNode
from repro.cdc.publisher import CdcPublisher
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.relay import WatchRelay
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.pubsub.broker import Broker, BrokerConfig
from repro.pubsub.consumer import Consumer
from repro.pubsub.log import RetentionPolicy
from repro.replication.checker import SnapshotChecker
from repro.replication.target import ReplicaStore
from repro.replication.watch_replicator import WatchReplicator
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore
from repro.storage.replica import ReadReplica
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


@pytest.mark.parametrize("seed", [2, 29])
def test_everything_converges(seed):
    sim = Simulation(seed=seed)
    store = MVCCStore(clock=sim.now)
    keys = key_universe(60)

    # --- pubsub side ----------------------------------------------------
    broker = Broker(sim, BrokerConfig(gc_interval=5.0))
    broker.create_topic("cdc", num_partitions=4,
                        retention=RetentionPolicy(max_age=20.0))
    CdcPublisher(sim, store.history, broker, "cdc")
    group = broker.consumer_group("cdc", "mirror")
    pubsub_mirror = {}

    def mirror_handler(message):
        if message.payload["op"] == "delete":
            pubsub_mirror.pop(message.key, None)
        else:
            pubsub_mirror[message.key] = message.payload["value"]
        return True

    pubsub_consumer = Consumer(sim, "mirror", handler=mirror_handler)
    group.join(pubsub_consumer)
    sim.call_at(10.0, pubsub_consumer.crash)
    sim.call_at(45.0, pubsub_consumer.recover)  # outage > retention

    # --- watch side -----------------------------------------------------
    ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=50_000))
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(4), progress_interval=0.25
    )
    replica = ReadReplica(sim, store, apply_lag=0.5)

    sharder = AutoSharder(
        sim, ["n0", "n1", "n2"],
        AutoSharderConfig(notify_latency=0.02, notify_jitter=0.05),
    )
    cache_nodes = [WatchCacheNode(sim, f"n{i}", store, ws) for i in range(3)]
    for node in cache_nodes:
        sharder.subscribe(node.on_assignment)
    cluster = CacheCluster(sim, sharder, cache_nodes, store)

    target = ReplicaStore()
    checker = SnapshotChecker(store)
    checker.attach_target(target)
    replicator = WatchReplicator(
        sim, store, ws, target, even_ranges(4),
    )
    replicator.start()

    relay = WatchRelay(
        sim, ws, replica.serve_snapshot, KeyRange.all(),
        config=LinkedCacheConfig(snapshot_latency=0.05), name="relay",
    )
    relay.start()
    leaves = []
    for i in range(3):
        leaf = LinkedCache(
            sim, relay, relay.snapshot_for_downstream, KeyRange.all(),
            LinkedCacheConfig(snapshot_latency=0.02), name=f"leaf{i}",
        )
        leaves.append(leaf)
        sim.call_at(2.0 + i, leaf.start)

    # --- churn ------------------------------------------------------------
    writer = WriteStream(
        sim, store, UniformKeys(sim, keys), rate=40.0, delete_fraction=0.1
    )
    sim.call_after(0.5, writer.start)

    def handoffs():
        while sim.now() < 50.0:
            sharder.move_key(
                keys[sim.rng.randrange(len(keys))],
                f"n{sim.rng.randrange(3)}",
            )
            yield Timeout(1.5)

    sim.spawn(handoffs())
    sim.call_at(25.0, ws.wipe)  # destroy all watch soft state mid-run
    sim.call_at(55.0, writer.stop)
    sim.run(until=90.0)

    # --- verdicts ---------------------------------------------------------
    truth = dict(store.scan())

    # replication: point-in-time consistent and byte-equal
    assert checker.violations == 0
    assert checker.regressions == 0
    assert checker.final_divergence(target) == []

    # cache fleet: zero stale entries under the watch protocol
    assert cluster.total_stale() == 0

    # relay tree: every leaf converged despite the wipe
    for leaf in leaves:
        assert leaf.state == "watching"
        assert leaf.data.items_latest() == truth

    # pubsub mirror: divergence iff silent GC loss occurred
    divergent = {k for k, v in truth.items() if pubsub_mirror.get(k) != v}
    if group.subscription.lost_to_gc == 0:
        assert divergent == set()
    else:
        assert group.subscription.lost_to_gc > 0  # and nobody was told
