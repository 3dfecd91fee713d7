"""E4 — §3.2.1: replication strategies, scalability vs consistency.

The ACL workload (remove member, then grant access — as separate,
ordered transactions) plus concurrent filler traffic is replicated from
the source store to a target through five strategies.  For each we
measure throughput (records applied per second of virtual time while
the pipeline is saturated), eventual-consistency divergence at
quiescence, snapshot violations (externalized states that never existed
at the source, via state fingerprints), and the paper's named anomaly
(member ∧ access observed at the target).

Expected shape (the §3.2.1 narrative):

==================  ==========  ===========  ==========  ============
strategy            throughput  final diverg  snapshot ✗  member∧access
==================  ==========  ===========  ==========  ============
serial              1×          0            0           0
concurrent-naive    ~N×         > 0          > 0         > 0
concurrent-version  ~N×         0            > 0         > 0
partition-serial    ~P×         0            > 0         > 0
watch               ~R×         0            0           0
==================  ==========  ===========  ==========  ============
"""

from __future__ import annotations

from typing import Optional

from repro.bench.runner import ExperimentResult, signature_defaults
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.core.stream import WatcherConfig
from repro.pubsub.broker import Broker
from repro.replication.appliers import (
    ConcurrentApplier,
    PartitionSerialApplier,
    SerialTxnApplier,
    VersionCheckedApplier,
)
from repro.replication.checker import AclInvariantChecker, SnapshotChecker
from repro.replication.target import ReplicaStore
from repro.replication.watch_replicator import SERVICE_TIME, WatchReplicator
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import AclWorkload


def run(
    strategies=("serial", "concurrent-naive", "concurrent-version",
                "partition-serial", "watch"),
    workers: int = 4,
    num_pairs: int = 24,
    cycle_rate: float = 40.0,
    filler_rate: float = 400.0,
    duration: float = 60.0,
    drain: float = 40.0,
    seed: int = 59,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E4 replication strategies (§3.2.1)",
        claim="serial is consistent but unscalable; concurrent scales "
              "but violates EC; version checks restore EC but not "
              "snapshot consistency; partition-serial still tears "
              "cross-partition transactions; watch+progress scales and "
              "is point-in-time consistent",
    )
    table = result.new_table(
        "strategies",
        ["strategy", "workers", "records", "throughput_rps", "catchup_s",
         "final_divergence", "snapshot_violations", "acl_violations",
         "max_backlog"],
    )

    for strategy in strategies:
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        target = ReplicaStore()
        snap_checker = SnapshotChecker(store)
        acl_checker: Optional[AclInvariantChecker] = None

        workload = AclWorkload(
            sim, store, num_pairs=num_pairs, cycle_rate=cycle_rate,
            filler_rate=filler_rate,
            # hot keys + deletes create the same-key reorder and
            # resurrection opportunities §3.2.1 warns about
            filler_zipf=1.2, filler_delete_fraction=0.15,
        )
        acl_checker = AclInvariantChecker(workload.pairs)
        snap_checker.attach_target(target)
        acl_checker.attach_target(target)

        applier = None
        replicator = None
        if strategy == "watch":
            ws = WatchSystem(
                sim,
                WatchSystemConfig(max_buffered_events=2_000_000,
                                  watcher_defaults=WatcherConfig(max_backlog=2_000_000)),
            )
            PartitionedIngestBridge(
                sim, store.history, ws, even_ranges(workers),
                progress_interval=0.25,
            )
            replicator = WatchReplicator(
                sim, store, ws, target, even_ranges(workers),
            )
            replicator.start()
        else:
            broker = Broker(sim)
            partitions = 1 if strategy == "serial" else workers
            broker.create_topic("cdc", num_partitions=partitions)
            from repro.cdc.publisher import CdcPublisher

            CdcPublisher(sim, store.history, broker, "cdc")
            if strategy == "serial":
                applier = SerialTxnApplier(
                    sim, broker, "cdc", target, service_time=SERVICE_TIME
                )
            elif strategy == "concurrent-naive":
                applier = ConcurrentApplier(
                    sim, broker, "cdc", target, workers=workers,
                    service_time=SERVICE_TIME,
                )
            elif strategy == "concurrent-version":
                applier = VersionCheckedApplier(
                    sim, broker, "cdc", target, workers=workers,
                    service_time=SERVICE_TIME,
                )
            elif strategy == "partition-serial":
                applier = PartitionSerialApplier(
                    sim, broker, "cdc", target, service_time=SERVICE_TIME
                )
            else:
                raise ValueError(f"unknown strategy {strategy!r}")

        workload.start()
        max_backlog = {"v": 0}

        def sample():
            if applier is not None:
                max_backlog["v"] = max(max_backlog["v"], applier.backlog())
            elif replicator is not None:
                max_backlog["v"] = max(max_backlog["v"], replicator.lag())
            sim.call_after(1.0, sample)

        sample()
        sim.call_at(duration, workload.stop)
        sim.run(until=duration)
        # adaptive drain: run until the pipeline fully catches up (or
        # the cap) so "slow but consistent" and "diverged" are distinct
        catchup_cap = duration + drain * 20
        while sim.now() < catchup_cap:
            backlog = (
                applier.backlog() if applier is not None else replicator.lag()
            )
            if backlog == 0:
                break
            sim.run_for(min(1.0, catchup_cap - sim.now()))
        catchup_s = sim.now() - duration
        sim.run_for(2.0)  # let final acks/applies settle

        records = (
            applier.records_seen if applier is not None
            else replicator.events_staged
        )
        divergence = len(snap_checker.final_divergence(target))
        table.add(
            strategy=strategy,
            workers=(1 if strategy == "serial" else workers),
            records=records,
            throughput_rps=round(records / (duration + catchup_s), 1),
            catchup_s=round(catchup_s, 1),
            final_divergence=divergence,
            snapshot_violations=snap_checker.violations,
            acl_violations=acl_checker.violating_states,
            max_backlog=max_backlog["v"],
        )

    result.notes.append(
        "throughput_rps is records/virtual-second while the workload "
        "runs; with the offered load above a single worker's capacity, "
        "serial saturates (growing backlog) while concurrent/watch keep "
        "up.  snapshot_violations counts externalized target states "
        "whose fingerprint never existed at the source."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    strategies=("serial", "concurrent-version", "watch"),
    num_pairs=12,
    cycle_rate=20.0,
    filler_rate=200.0,
    duration=25.0,
    drain=25.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """The §3.2.1 spectrum: each pubsub strategy gives up throughput,
    EC, or point-in-time consistency; watch gives up none.  A row is
    asserted when the run's ``strategies`` include it."""
    rows = {row["strategy"]: row for row in result.table("strategies").rows}
    # keyed on what was requested: a requested row that is missing
    # raises KeyError instead of passing unasserted
    asked = params["strategies"]

    if "serial" in asked:
        # serial: consistent but the bottleneck
        serial = rows["serial"]
        assert serial["snapshot_violations"] == 0
        assert serial["acl_violations"] == 0
        assert serial["final_divergence"] == 0
    if "concurrent-naive" in asked:
        # naive reordering: stale overwrites / resurrections survive
        naive = rows["concurrent-naive"]
        assert naive["final_divergence"] > 0
        assert naive["snapshot_violations"] > 0
    if "partition-serial" in asked:
        # per-key order (EC holds) but the member/access anomaly — the
        # paper's §3.2.1 example — appears at the target
        partition = rows["partition-serial"]
        assert partition["final_divergence"] == 0
        assert partition["acl_violations"] > 0
    if "concurrent-version" in asked:
        # version checks restore EC but not snapshot consistency
        versioned = rows["concurrent-version"]
        assert versioned["final_divergence"] == 0
        assert versioned["snapshot_violations"] > 0
        if "serial" in asked:
            # serial needs far longer to catch up than concurrent appliers
            assert rows["serial"]["catchup_s"] > 2 * versioned["catchup_s"]
    if "watch" in asked:
        # watch: concurrent AND point-in-time consistent
        watch = rows["watch"]
        assert watch["snapshot_violations"] == 0
        assert watch["acl_violations"] == 0
        assert watch["final_divergence"] == 0
        if "serial" in asked:
            assert watch["catchup_s"] < rows["serial"]["catchup_s"]
