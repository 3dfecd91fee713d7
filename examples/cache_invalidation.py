#!/usr/bin/env python3
"""Cache invalidation under dynamic sharding — Figure 2, live.

A dynamically sharded cache fleet serves reads of a continuously
updated store.  Two invalidation designs run on identical workloads:

- pubsub consumer group (members ack keys they believe they own);
- watch: each node snapshots+watches its assigned ranges.

The auto-sharder keeps moving hot key ranges between nodes while the
updates race the handoffs.  At the end, every cached entry is audited
against the store: pubsub leaves permanently stale entries (Figure 2),
watch leaves none.

Run:  python examples/cache_invalidation.py
"""

from repro.cache.cluster import CacheCluster, Prober
from repro.cache.invalidation import (
    InvalidationMode,
    PubsubCacheNode,
    PubsubInvalidationPipeline,
)
from repro.cache.node import CacheNodeConfig
from repro.cache.watch_cache import WatchCacheNode
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem
from repro.pubsub.broker import Broker
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe

NUM_NODES = 3
NUM_KEYS = 120
DURATION = 90.0


def run_fleet(kind: str) -> dict:
    sim = Simulation(seed=21)
    store = MVCCStore(clock=sim.now)
    keys = key_universe(NUM_KEYS)
    for i, key in enumerate(keys):
        store.put(key, {"v": -1})

    sharder = AutoSharder(
        sim, [f"node-{i}" for i in range(NUM_NODES)],
        AutoSharderConfig(notify_latency=0.05, notify_jitter=0.25),
    )
    for boundary in range(0, NUM_KEYS, 5):
        sharder.split_at(keys[boundary])

    if kind == "pubsub":
        broker = Broker(sim)
        nodes = [
            PubsubCacheNode(
                sim, f"node-{i}", store, InvalidationMode.OWNER_ACK,
                config=CacheNodeConfig(),
            )
            for i in range(NUM_NODES)
        ]
        PubsubInvalidationPipeline(sim, store, broker, sharder, nodes)
    else:
        ws = WatchSystem(sim)
        PartitionedIngestBridge(
            sim, store.history, ws, even_ranges(8), progress_interval=0.2
        )
        nodes = [WatchCacheNode(sim, f"node-{i}", store, ws) for i in range(NUM_NODES)]
        for node in nodes:
            sharder.subscribe(node.on_assignment)

    cluster = CacheCluster(sim, sharder, nodes, store)
    writer = WriteStream(
        sim, store, UniformKeys(sim, keys), rate=30.0,
        value_fn=lambda n: {"v": n},
    )
    writer.start()
    prober = Prober(sim, cluster, keys, rate=60.0)
    prober.start()

    # hot-range handoffs racing updates and reads (Figure 2 conditions)
    move_order = list(keys)
    sim.rng.shuffle(move_order)

    def handoffs():
        for key in move_order:
            if sim.now() >= DURATION:
                break
            sharder.move_key(key, f"node-{sim.rng.randrange(NUM_NODES)}")
            for dt in (0.01, 0.04, 0.08, 0.12, 0.2, 0.4):
                sim.call_after(dt, lambda key=key: cluster.read(key))
            for dt in (0.04, 0.1, 0.17):
                sim.call_after(dt, lambda key=key: store.put(key, {"v": sim.now()}))
            yield Timeout(0.5)

    sim.spawn(handoffs())
    sim.call_at(DURATION * 0.5, writer.stop)
    sim.run(until=DURATION + 30.0)

    return {
        "stale_entries": cluster.total_stale(keys),
        "stale_read_pct": 100 * prober.stats.stale_fraction,
        "unavailable_pct": 100 * prober.stats.unavailable_fraction,
        "probes": prober.stats.total,
    }


def main() -> None:
    print(f"{NUM_NODES} cache nodes, {NUM_KEYS} keys, continuous updates, "
          f"hot-range handoffs every 0.5s for {DURATION:.0f}s\n")
    for kind in ("pubsub", "watch"):
        outcome = run_fleet(kind)
        print(f"{kind:>7}: permanently stale entries = "
              f"{outcome['stale_entries']:3d}   "
              f"stale reads = {outcome['stale_read_pct']:.2f}%   "
              f"unavailable = {outcome['unavailable_pct']:.2f}%")
    print("\nThe pubsub fleet cannot detect its stale entries — no signal "
          "exists (§3.2.2).\nThe watch fleet's handoff protocol "
          "(snapshot + watch from snapshot version) cannot miss updates.")


if __name__ == "__main__":
    main()
