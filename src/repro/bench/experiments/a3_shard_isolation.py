"""A3 (ablation) — sharding the watch layer: load spread and failure
isolation.

§4.4/§5: a standalone watch system must scale; sharding it over key
ranges is the obvious design.  This ablation measures what sharding
buys: ingest load spread across shards, and — the interesting part —
*failure isolation*: when one shard's soft state is lost, only the
watchers overlapping that shard resync, instead of every watcher in
the system (the monolithic case).  Correctness is identical: everyone
converges either way.
"""

from __future__ import annotations

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot
from repro.core.bridge import DirectIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.sharded_watch import ShardedWatchSystem
from repro.core.watch_system import WatchSystem
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    shard_counts=(1, 4, 8),
    num_watchers: int = 24,
    update_rate: float = 80.0,
    duration: float = 30.0,
    seed: int = 109,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="A3 sharded watch layer (§4.4/§5 ablation)",
        claim="sharding the watch system spreads ingest load and "
              "contains a shard's soft-state loss to its own watchers; "
              "correctness is unchanged",
    )
    table = result.new_table(
        "shard sweep",
        ["shards", "watchers", "max_shard_load_frac", "watchers_resynced",
         "resync_fraction", "all_complete"],
    )
    keys = key_universe(120)
    watcher_ranges = even_ranges(num_watchers)

    for shards in shard_counts:
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        if shards == 1:
            ws = WatchSystem(sim)
        else:
            ws = ShardedWatchSystem(sim, even_ranges(shards))
        DirectIngestBridge(sim, store.history, ws, progress_interval=0.25)

        snapshot_fn = store_snapshot(store)

        caches = []
        for i, key_range in enumerate(watcher_ranges):
            cache = LinkedCache(
                sim, ws, snapshot_fn, key_range,
                LinkedCacheConfig(snapshot_latency=0.05), name=f"w{i}",
            )
            caches.append(cache)
            cache.start()
        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate
        )
        sim.call_after(0.5, writer.start)

        # lose one unit of soft state mid-run
        def fail():
            if shards == 1:
                ws.wipe()
            else:
                ws.wipe_shard(0)

        sim.call_at(duration * 0.5, fail)
        sim.call_at(duration, writer.stop)
        sim.run(until=duration + 10.0)

        resynced = sum(1 for c in caches if c.resync_count > 0)
        if shards == 1:
            max_load_frac = 1.0
        else:
            loads = ws.shard_loads()
            total = sum(loads) or 1
            max_load_frac = max(loads) / total
        complete = all(
            cache.data.items_latest()
            == dict(store.scan(cache.key_range))
            for cache in caches
        )
        table.add(
            shards=shards,
            watchers=num_watchers,
            max_shard_load_frac=round(max_load_frac, 3),
            watchers_resynced=resynced,
            resync_fraction=round(resynced / num_watchers, 3),
            all_complete=complete,
        )

    result.notes.append(
        "one soft-state loss at t=duration/2: monolithic (shards=1) "
        "resyncs every watcher; with S shards only ~1/S of watchers "
        "are touched.  max_shard_load_frac shows ingest load spreading."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    shard_counts=(1, 4),
    num_watchers=12,
    update_rate=50.0,
    duration=15.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Sharding the watch layer isolates failures and spreads load."""
    rows = sorted(result.table("shard sweep").rows, key=lambda r: r["shards"])
    mono = rows[0]
    sharded = rows[-1]
    assert all(r["all_complete"] for r in rows)
    # monolithic: losing the watch system resyncs everyone
    assert mono["resync_fraction"] == 1.0
    # sharded: only the failed shard's watchers are touched
    assert sharded["resync_fraction"] <= 0.5
    # ingest load spreads across shards
    assert sharded["max_shard_load_frac"] < 0.6
