"""E9 — Figure 3: the storage × notification quadrant matrix.

The unbundled model composes along two axes: the storage can be
*producer storage* (system of record) or *ingestion storage*
(ephemeral events), and the watch can be *built into the store*
(Spanner change streams / etcd) or an *external system* over the
Ingester contract (Snappy over MySQL/TiDB).  The paper's claim is that
all four quadrants support the use cases — the model "generalizes".

One replication-style workload (watch a range, maintain a mirror,
survive a resync) runs in each quadrant.  Success criteria per
quadrant: complete mirror, knowledge window open (progress works), and
resync recovery works.
"""

from __future__ import annotations

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot
from repro.core.bridge import DirectIngestBridge, PartitionedIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.store_watch import StoreWatch
from repro.core.watch_system import WatchSystem
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore
from repro.storage.timeseries import IngestionStore


def run(
    num_keys: int = 120,
    update_rate: float = 60.0,
    duration: float = 30.0,
    seed: int = 97,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E9 storage x notification quadrants (Figure 3)",
        claim="producer/ingestion storage each work with built-in or "
              "external watch; the same consumer code runs unchanged in "
              "all four quadrants",
    )
    table = result.new_table(
        "quadrants",
        ["storage", "watch", "events_seen", "mirror_complete",
         "progress_works", "resync_recovers"],
    )

    quadrants = [
        ("producer", "built-in"),
        ("producer", "external"),
        ("ingestion", "built-in"),
        ("ingestion", "external"),
    ]

    for storage_kind, watch_kind in quadrants:
        sim = Simulation(seed=seed)
        if storage_kind == "producer":
            store = MVCCStore(clock=sim.now)

            def write(n, store=store):
                store.put(f"{'abcdefghij'[n % 10]}{n % num_keys:05d}", {"v": n})

            def expected_items(store=store):
                return dict(store.scan())

            snapshot_fn = store_snapshot(store)
        else:
            store = IngestionStore(clock=sim.now)

            def write(n, store=store):
                store.append(f"{'abcdefghij'[n % 10]}{n % num_keys:05d}", {"v": n})

            def expected_items(store=store):
                return store.snapshot_latest()

            def snapshot_fn(kr, store=store):
                version = store.last_version
                return version, store.snapshot_latest(kr)

        if watch_kind == "built-in":
            watchable = StoreWatch(sim, store)
        else:
            watchable = WatchSystem(sim)
            if storage_kind == "producer":
                PartitionedIngestBridge(
                    sim, store.history, watchable, even_ranges(4),
                    progress_interval=0.5,
                )
            else:
                DirectIngestBridge(
                    sim, store.history, watchable, progress_interval=0.5
                )

        cache = LinkedCache(
            sim, watchable, snapshot_fn, KeyRange.all(),
            config=LinkedCacheConfig(snapshot_latency=0.05),
            name=f"{storage_kind}-{watch_kind}",
        )
        cache.start()

        def writer():
            n = 0
            deadline = sim.now() + duration
            while sim.now() < deadline:
                write(n)
                n += 1
                yield Timeout(1.0 / update_rate)

        sim.spawn(writer(), name="writer")
        # force one resync mid-run to prove recovery in every quadrant
        if watch_kind == "external":
            sim.call_at(duration * 0.5, watchable.wipe)
        else:
            def force_resync(cache=cache):
                # built-in watch has no soft state to wipe; simulate the
                # store closing the stream (e.g. history truncation)
                if cache._watch_handle is not None:
                    cache._watch_handle.cancel()
                    cache._watch_handle = None
                cache.on_resync()

            sim.call_at(duration * 0.5, force_resync)
        sim.run(until=duration + 10.0)

        expected = expected_items()
        got = cache.data.items_latest(KeyRange.all())
        mirror_complete = all(got.get(k) == v for k, v in expected.items())
        progress_works = cache.knowledge.max_known_version() > 0
        table.add(
            storage=storage_kind,
            watch=watch_kind,
            events_seen=cache.events_applied,
            mirror_complete=mirror_complete,
            progress_works=progress_works,
            resync_recovers=(cache.resync_count >= 1 and cache.state == "watching"),
        )

    result.notes.append(
        "the same LinkedCache consumer ran in all four quadrants; only "
        "the wiring (store kind x watch kind) differed — Figure 3's "
        "design space, covered."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_keys=60,
    update_rate=40.0,
    duration=15.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """All four storage x notification quadrants work (Figure 3)."""
    table = result.table("quadrants")
    assert len(table.rows) == 4
    for row in table.rows:
        assert row["events_seen"] > 0, row
        assert row["mirror_complete"], row
        assert row["progress_works"], row
        assert row["resync_recovers"], row
