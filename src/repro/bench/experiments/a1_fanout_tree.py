"""A1 (ablation) — §4.4: "degree of fan out" scale points.

The paper says applications can pick watch systems "optimized for
different scale points, e.g. degree of fan out".  This ablation
compares serving N consumers directly from one watch system against a
two-level relay tree (R relays, N/R consumers each), measuring the
load the *source layer* carries: sessions attached to it and events it
delivers.  The tree divides source-layer work by N/R at the cost of
one extra hop of latency — the standard fan-out tree tradeoff, now
with end-to-end correctness preserved across relay resyncs (relays
re-serve snapshots from their own versioned state).
"""

from __future__ import annotations

from typing import List

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot
from repro.core.bridge import DirectIngestBridge
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.relay import WatchRelay
from repro.core.watch_system import WatchSystem
from repro.sim.kernel import Simulation
from repro.sim.metrics import Histogram
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    num_consumers: int = 48,
    num_relays: int = 4,
    update_rate: float = 50.0,
    duration: float = 30.0,
    seed: int = 103,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="A1 fan-out: direct vs relay tree (§4.4 ablation)",
        claim="a relay tree divides source-layer sessions and delivery "
              "work by the tree branching factor, at one extra hop of "
              "latency, with correctness preserved",
    )
    table = result.new_table(
        "topologies",
        ["topology", "consumers", "source_sessions", "source_deliveries",
         "latency_p50", "latency_p99", "all_complete"],
    )
    keys = key_universe(60)

    for topology in ("direct", "tree"):
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        root = WatchSystem(sim, name="root")
        DirectIngestBridge(sim, store.history, root, progress_interval=0.2)
        snapshot = store_snapshot(store)
        latency = Histogram("latency")
        consumers: List[LinkedCache] = []

        class TimedCache(LinkedCache):
            def on_event(self, event):
                super().on_event(event)
                latency.observe(sim.now() - event.mutation.value["t"])

        if topology == "direct":
            for i in range(num_consumers):
                cache = TimedCache(
                    sim, root, snapshot, KeyRange.all(),
                    LinkedCacheConfig(snapshot_latency=0.02),
                    name=f"leaf-{i}",
                )
                consumers.append(cache)
                cache.start()
        else:
            relays = []
            for r in range(num_relays):
                relay = WatchRelay(
                    sim, root, snapshot, KeyRange.all(),
                    config=LinkedCacheConfig(snapshot_latency=0.02),
                    name=f"relay-{r}",
                )
                relays.append(relay)
                relay.start()
            for i in range(num_consumers):
                relay = relays[i % num_relays]
                cache = TimedCache(
                    sim, relay, relay.snapshot_for_downstream, KeyRange.all(),
                    LinkedCacheConfig(snapshot_latency=0.02),
                    name=f"leaf-{i}",
                )
                consumers.append(cache)
                cache.start()

        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate,
            value_fn=lambda n: {"n": n, "t": sim.now()},
        )
        sim.call_after(0.5, writer.start)
        sim.call_at(duration, writer.stop)
        sim.run(until=duration + 10.0)

        truth = dict(store.scan())
        complete = all(
            cache.data.items_latest() == truth for cache in consumers
        )
        # source deliveries = events ingested x sessions attached at root
        table.add(
            topology=topology,
            consumers=num_consumers,
            source_sessions=root.active_watchers,
            source_deliveries=root.events_ingested * max(root.active_watchers, 1),
            latency_p50=latency.p50,
            latency_p99=latency.p99,
            all_complete=complete,
        )

    result.notes.append(
        "source_deliveries approximates the source watch layer's output "
        "work (events x attached sessions).  The tree pays ~2x delivery "
        "latency (one extra hop) to divide source fan-out by "
        f"{num_consumers}/{num_relays}."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_consumers=24,
    num_relays=3,
    update_rate=30.0,
    duration=15.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Relay trees divide source fan-out work."""
    table = result.table("topologies")
    direct = table.row_by("topology", "direct")
    tree = table.row_by("topology", "tree")
    # both topologies deliver complete state to every consumer
    assert direct["all_complete"] and tree["all_complete"]
    # the tree's source layer serves only the relays
    assert tree["source_sessions"] == params["num_relays"]
    assert direct["source_sessions"] == params["num_consumers"]
    assert tree["source_deliveries"] * 2 < direct["source_deliveries"]
    # the cost: one extra hop of latency, but same order of magnitude
    assert tree["latency_p99"] < direct["latency_p99"] * 10
