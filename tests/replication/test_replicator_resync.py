"""The replicator's coordinated resync: consistency across recovery.

Regression tests for a bug the kitchen-sink integration test caught:
a per-range resync snapshot mixes source versions across ranges in one
externalized state.  The fix pauses the barrier and recovers the whole
replicator at a single source version.
"""

import pytest

from repro._types import Mutation
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem
from repro.replication.checker import SnapshotChecker
from repro.replication.target import ReplicaStore
from repro.replication.watch_replicator import WatchReplicator
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def build(sim):
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim)
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(4), progress_interval=0.2
    )
    target = ReplicaStore()
    checker = SnapshotChecker(store)
    checker.attach_target(target)
    replicator = WatchReplicator(
        sim, store, ws, target, even_ranges(4),
    )
    replicator.start()
    return store, ws, target, checker, replicator


def test_wipe_recovery_is_snapshot_consistent(sim):
    store, ws, target, checker, replicator = build(sim)
    sim.run_for(0.5)
    writer = WriteStream(
        sim, store, UniformKeys(sim, key_universe(50)), rate=60.0,
        delete_fraction=0.15,
    )
    writer.start()
    sim.call_at(3.0, ws.wipe)
    sim.call_at(7.0, ws.wipe)  # again, mid-recovery churn
    sim.call_at(10.0, writer.stop)
    sim.run(until=20.0)
    assert replicator.resyncs >= 1
    assert checker.violations == 0
    assert checker.regressions == 0
    assert checker.final_divergence(target) == []


def test_concurrent_range_resyncs_coalesce(sim):
    """A wipe resyncs all four range watchers at once; recovery must
    run once, not four times."""
    store, ws, target, checker, replicator = build(sim)
    sim.run_for(0.5)
    for i in range(20):
        store.commit({f"a{i}": Mutation.put(i), f"z{i}": Mutation.put(-i)})
    sim.run_for(1.0)
    ws.wipe()
    sim.run_for(2.0)
    assert replicator.resyncs == 1  # coalesced
    assert checker.violations == 0
    assert target.items() == dict(store.scan())


def test_recurring_source_states_not_flagged(sim):
    """Checker regression-matching: a state that recurs at the source
    (write → delete → write same value) must match monotonically."""
    store, ws, target, checker, replicator = build(sim)
    sim.run_for(0.5)
    store.put("k", "v")
    store.delete("k")
    store.put("k", "v")  # same state as after the first put
    store.delete("k")    # and the empty state recurs too
    sim.run_for(3.0)
    assert checker.violations == 0
    assert checker.regressions == 0
    assert checker.final_divergence(target) == []
