"""E7 — Figure 5: knowledge regions and snapshot stitching.

"Progress events ... track key ranges and version windows for which
they have complete knowledge and can serve consistent snapshot
results ... or stitch together a consistent snapshot across multiple
ranges, as long as appropriate versions exist in each range."

Setup: a store under continuous writes feeds a watch system through a
*partitioned* bridge (per-range progress, staggered latencies — so no
watcher ever has globally fresh knowledge).  A fleet of watchers covers
the keyspace with deliberately overlapping ranges.  We sweep the
progress cadence and measure:

- the fraction of random range queries servable snapshot-consistently
  from watcher state alone (no store round-trip);
- the staleness of the chosen stitch version (store head minus stitch
  version, in versions);
- how often stitching needed 2+ watchers (the cross-watcher case);
- correctness: every stitched result is compared against the store's
  snapshot at the stitch version (must match exactly).

Pubsub has no row here: a pubsub consumer *cannot* answer "is my state
complete as of version v for range R" at all — that is the point.
"""

from __future__ import annotations

from typing import List

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.snapshotter import SnapshotStitcher
from repro.core.watch_system import WatchSystem
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    progress_intervals=(0.1, 0.5, 2.0),
    num_watchers: int = 4,
    num_keys: int = 260,
    update_rate: float = 100.0,
    duration: float = 30.0,
    queries: int = 300,
    seed: int = 83,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E7 knowledge regions and snapshot stitching (Figure 5)",
        claim="range-scoped progress lets dynamically sharded watchers "
              "serve provably snapshot-consistent reads, stitchable "
              "across watchers; faster progress cadence = fresher "
              "stitches",
    )
    table = result.new_table(
        "progress cadence sweep",
        ["progress_interval_s", "queries", "servable_frac",
         "correct_stitches", "multi_watcher_frac",
         "staleness_versions_p50", "staleness_versions_p99"],
    )
    keys = key_universe(num_keys)

    for interval in progress_intervals:
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        for i, key in enumerate(keys):
            store.put(key, {"v": -1, "i": i})
        ws = WatchSystem(sim)
        PartitionedIngestBridge(
            sim, store.history, ws, even_ranges(8),
            base_latency=0.005, latency_stagger=0.004,
            progress_interval=interval,
        )

        snapshot_fn = store_snapshot(store)

        # overlapping watcher ranges: watcher i covers [b_i, b_{i+2})
        bounds = [kr.low for kr in even_ranges(num_watchers)] + [
            even_ranges(num_watchers)[-1].high
        ]
        caches: List[LinkedCache] = []
        for i in range(num_watchers):
            low = bounds[i]
            high = bounds[min(i + 2, len(bounds) - 1)]
            cache = LinkedCache(
                sim, ws, snapshot_fn, KeyRange(low, high),
                config=LinkedCacheConfig(snapshot_latency=0.02),
                name=f"watcher-{i}",
            )
            caches.append(cache)
            cache.start()

        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate,
            value_fn=lambda n: {"v": n},
        )
        writer.start()
        stitcher = SnapshotStitcher(caches)

        stats = {
            "served": 0, "correct": 0, "multi": 0,
            "staleness": [], "asked": 0,
        }

        def query_driver():
            warmup = 2.0
            yield Timeout(warmup)
            interval_q = (duration - warmup - 1.0) / queries
            for _ in range(queries):
                a = keys[sim.rng.randrange(len(keys))][:1]
                b = keys[sim.rng.randrange(len(keys))][:1]
                low, high = min(a, b), max(a, b)
                if low == high:
                    high = high + "\U0010fffe"
                query = KeyRange(low, high)
                stats["asked"] += 1
                head = store.last_version
                stitch = stitcher.stitch(query)
                if stitch is not None:
                    stats["served"] += 1
                    if len({name for _, name in stitch.pieces}) > 1:
                        stats["multi"] += 1
                    expected = dict(store.scan(query, stitch.version))
                    if stitch.items == expected:
                        stats["correct"] += 1
                    stats["staleness"].append(head - stitch.version)
                yield Timeout(interval_q)

        sim.spawn(query_driver(), name="queries")
        sim.run(until=duration)

        staleness = sorted(stats["staleness"])
        def pct(p):
            if not staleness:
                return 0
            return staleness[min(len(staleness) - 1, int(p * len(staleness)))]

        table.add(
            progress_interval_s=interval,
            queries=stats["asked"],
            servable_frac=round(stats["served"] / stats["asked"], 3)
            if stats["asked"] else 0.0,
            correct_stitches=(stats["correct"] == stats["served"]),
            multi_watcher_frac=round(stats["multi"] / stats["served"], 3)
            if stats["served"] else 0.0,
            staleness_versions_p50=pct(0.50),
            staleness_versions_p99=pct(0.99),
        )

    result.notes.append(
        "correct_stitches=yes means every stitched snapshot byte-matched "
        "the store's snapshot at the stitch version (knowledge-region "
        "immutability in action).  Staleness scales with the progress "
        "cadence, the knob §4.2.2 gives each deployment."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    progress_intervals=(0.1, 1.0),
    num_watchers=3,
    num_keys=130,
    update_rate=50.0,
    duration=15.0,
    queries=150,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Knowledge regions stitch into correct snapshots (Figure 5)."""
    table = result.table("progress cadence sweep")
    for row in table.rows:
        # every stitched snapshot byte-matched the store at that version
        assert row["correct_stitches"], row
        # nearly every query was servable from watcher state alone
        assert row["servable_frac"] > 0.9, row
        # some stitches genuinely crossed watchers (Figure 5's claim)
        assert row["multi_watcher_frac"] > 0.0, row
    # staleness tracks the progress cadence (the §4.2.2 knob)
    rows = sorted(table.rows, key=lambda r: r["progress_interval_s"])
    assert (
        rows[0]["staleness_versions_p50"] <= rows[-1]["staleness_versions_p50"]
    )
