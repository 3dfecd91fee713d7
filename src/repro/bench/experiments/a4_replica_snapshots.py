"""A4 (ablation) — §4.2.1: serving resync snapshots from a replica.

"Note that it is acceptable to read a stale snapshot, so we can
optionally reduce load on the underlying storage by reading from a
replica instead."

A fleet of watchers suffers periodic restarts against a rolling
retention window, so each restarted watcher resumes below the floor
and must recover via snapshot.  We compare recovery snapshots served
by the primary store vs. by a read replica lagging by a configurable
amount:

- primary-served: zero extra staleness, but the primary absorbs every
  recovery scan;
- replica-served: the primary serves **zero** recovery scans; the
  stale snapshot costs extra catch-up events, and the final state is
  identical (the watch stream replays the gap).

The replica-lag sweep shows the cost curve: more lag = more catch-up,
never divergence.
"""

from __future__ import annotations

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.core.bridge import DirectIngestBridge
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.storage.replica import ReadReplica, SnapshotCounter
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    sources=("primary", "replica-0.5s", "replica-5s"),
    num_watchers: int = 10,
    update_rate: float = 80.0,
    duration: float = 40.0,
    wipe_every: float = 8.0,
    seed: int = 113,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="A4 resync snapshots: primary vs replica (§4.2.1)",
        claim="replica-served recovery removes all snapshot load from "
              "the primary; staleness only adds catch-up events, never "
              "divergence",
    )
    table = result.new_table(
        "snapshot source sweep",
        ["source", "resyncs", "primary_snapshot_scans",
         "replica_snapshot_scans", "snapshot_staleness_versions",
         "all_complete"],
    )
    keys = key_universe(80)

    for source in sources:
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=100_000))
        DirectIngestBridge(sim, store.history, ws, progress_interval=0.25)
        counter = SnapshotCounter(store)
        replica = None
        staleness_samples = []
        if source == "primary":
            base_snapshot_fn = counter.serve_snapshot
        else:
            lag = float(source.split("-")[1].rstrip("s"))
            replica = ReadReplica(sim, store, apply_lag=lag)
            base_snapshot_fn = replica.serve_snapshot

        def snapshot_fn(kr):
            version, items = base_snapshot_fn(kr)
            staleness_samples.append(store.last_version - version)
            return version, items

        caches = []
        for i in range(num_watchers):
            cache = LinkedCache(
                sim, ws, snapshot_fn, KeyRange.all(),
                LinkedCacheConfig(snapshot_latency=0.05), name=f"w{i}",
            )
            caches.append(cache)
            cache.start()
        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate
        )
        sim.call_after(0.2, writer.start)

        # retention: the watch system keeps a rolling window of recent
        # history (floor advances); a watcher that resumes from a
        # position below the floor must resync via snapshot (§4.2.1).
        # The margin is sized so a moderately stale replica snapshot is
        # itself re-watchable — the assumption behind the replica option.
        margin_versions = int(update_rate * 8)

        def retention_tick():
            if sim.now() < duration:
                ws.raise_floor(max(0, store.last_version - margin_versions))
                sim.call_after(1.0, retention_tick)

        sim.call_after(1.0, retention_tick)

        # watcher restarts: every wipe_every seconds one watcher goes
        # down for longer than the retained window covers, then resumes
        # from its old position — forcing the snapshot recovery path
        downtime = margin_versions / update_rate + 4.0
        restart_state = {"idx": 0}

        def restart_tick():
            if sim.now() >= duration:
                return
            cache = caches[restart_state["idx"] % len(caches)]
            restart_state["idx"] += 1
            cache.suspend()
            sim.call_after(downtime, cache.resume)
            sim.call_after(wipe_every, restart_tick)

        sim.call_after(wipe_every, restart_tick)
        sim.call_at(duration, writer.stop)
        sim.run(until=duration + 15.0)

        truth = dict(store.scan())
        complete = all(c.data.items_latest() == truth for c in caches)
        resyncs = sum(c.resync_count for c in caches)
        avg_staleness = (
            sum(staleness_samples) / len(staleness_samples)
            if staleness_samples else 0.0
        )
        table.add(
            source=source,
            resyncs=resyncs,
            primary_snapshot_scans=counter.snapshots_served,
            replica_snapshot_scans=(
                replica.snapshots_served if replica is not None else 0
            ),
            snapshot_staleness_versions=round(avg_staleness, 1),
            all_complete=complete,
        )

    result.notes.append(
        "snapshot_staleness_versions: how far behind the store head the "
        "served snapshots were — exactly the extra events the watch "
        "stream replays afterwards.  The price of offloading the "
        "primary is stream traffic, never correctness."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    sources=("primary", "replica-2s"),
    num_watchers=6,
    update_rate=50.0,
    duration=20.0,
    wipe_every=6.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Replica-served recovery takes all snapshot load off the primary."""
    table = result.table("snapshot source sweep")
    primary = table.row_by("source", "primary")
    replica = next(r for r in table.rows if r["source"].startswith("replica"))
    assert all(r["all_complete"] for r in table.rows)
    assert primary["resyncs"] > 0  # the recovery path actually ran
    # replica mode: zero recovery load on the primary
    assert replica["primary_snapshot_scans"] == 0
    assert replica["replica_snapshot_scans"] > 0
    # staleness is visible but harmless
    assert (
        replica["snapshot_staleness_versions"]
        > primary["snapshot_staleness_versions"]
    )
