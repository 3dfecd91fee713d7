"""A2 (ablation) — sizing the watch system's soft state.

The watch system's only tunable hard tradeoff is its in-memory event
budget: a bigger buffer serves later-joining (or laggier) watchers from
the stream; a smaller one pushes them to resync from the store.  §4.2.2
frames this as a feature — soft state is deletable and sizeable at
will, because the store remains the source of truth.

This ablation sweeps the budget against a population of watchers that
join at random lags and measures: how many caught up from the buffer
vs. resynced, the store snapshot load that resulted, and peak memory.
The claim shape: resyncs (and snapshot load) fall monotonically as the
budget grows, memory rises, and **correctness is identical at every
point** — the knob trades resources, never consistency.
"""

from __future__ import annotations

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot
from repro.core.bridge import DirectIngestBridge
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    budgets=(200, 1000, 5000, 50_000),
    num_watchers: int = 20,
    update_rate: float = 100.0,
    duration: float = 40.0,
    seed: int = 107,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="A2 soft-state budget ablation (§4.2.2)",
        claim="the buffer budget trades memory against resync/snapshot "
              "load; every setting converges to the same correct state",
    )
    table = result.new_table(
        "budget sweep",
        ["budget_events", "watchers", "resyncs", "snapshots_taken",
         "peak_soft_state_events", "all_complete"],
    )
    keys = key_universe(80)

    for budget in budgets:
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=budget))
        DirectIngestBridge(sim, store.history, ws, progress_interval=0.25)

        snapshot_fn = store_snapshot(store)

        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate
        )
        writer.start()

        caches = []
        # watchers join throughout the run, each trying to start from
        # version 0 (worst case: they want full history)
        for i in range(num_watchers):
            cache = LinkedCache(
                sim, ws, snapshot_fn, KeyRange.all(),
                LinkedCacheConfig(snapshot_latency=0.1),
                name=f"w{i}",
            )
            join_at = (i / num_watchers) * duration * 0.8

            def join(cache=cache):
                # ask the stream for everything since v0 first; the
                # system answers with catch-up or an immediate resync
                cache.state = "watching"
                cache._watch_handle = ws.watch_range(
                    cache.key_range, 0, cache, config=cache.config.watcher
                )

            sim.call_at(join_at, join)
            caches.append(cache)
        sim.call_at(duration, writer.stop)
        sim.run(until=duration + 15.0)

        truth = dict(store.scan())
        complete = all(
            cache.data.items_latest() == truth for cache in caches
        )
        table.add(
            budget_events=budget,
            watchers=num_watchers,
            resyncs=sum(c.resync_count for c in caches),
            snapshots_taken=sum(c.snapshots_taken for c in caches),
            peak_soft_state_events=ws.soft_state_peak_events,
            all_complete=complete,
        )

    result.notes.append(
        "watchers join over time asking for history from version 0; "
        "small budgets force resyncs (snapshot load on the store), big "
        "budgets serve from memory.  all_complete=yes in every row: the "
        "budget never affects correctness, only where recovery reads "
        "come from."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    budgets=(200, 5000),
    num_watchers=10,
    update_rate=60.0,
    duration=20.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """The budget trades memory for resync load, never consistency."""
    rows = sorted(
        result.table("budget sweep").rows, key=lambda r: r["budget_events"]
    )
    # every budget converges correctly — the knob never costs consistency
    assert all(r["all_complete"] for r in rows)
    # smaller budgets force more resyncs (and store snapshot reads)
    assert rows[0]["resyncs"] > rows[-1]["resyncs"]
    assert rows[0]["snapshots_taken"] >= rows[-1]["snapshots_taken"]
    # bigger budgets hold more memory
    assert rows[0]["peak_soft_state_events"] < rows[-1]["peak_soft_state_events"]
