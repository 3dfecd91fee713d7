"""Tests for the watch-based worker pool."""

import pytest

from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.storage.kv import MVCCStore
from repro.workqueue.tasks import Task
from repro.workqueue.watch_worker import WatchWorkerPool, task_row_key


def build_pool(sim, num_workers=2):
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim)
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(4), progress_interval=0.1
    )
    sharder = AutoSharder(
        sim, [f"worker-{i}" for i in range(num_workers)],
        AutoSharderConfig(notify_latency=0.01, notify_jitter=0.0),
    )
    pool = WatchWorkerPool(
        sim, store, ws, sharder, num_workers=num_workers,
    )
    return store, pool, sharder


def submit_n(sim, pool, n, key_fn=lambda i: f"{'abcxyz'[i % 6]}key", work=0.001,
             poison=()):
    for i in range(n):
        pool.submit(Task(
            task_id=i, key=key_fn(i), work=2.0 if i in poison else work,
            enqueued_at=sim.now(), poison=(i in poison),
        ))


class TestCompletion:
    def test_all_tasks_complete(self, sim):
        store, pool, sharder = build_pool(sim)
        submit_n(sim, pool, 20)
        sim.run_for(20.0)
        assert pool.stats.completed == 20
        assert all(p.get("state") != "pending" for _, p in pool.store.scan())

    def test_task_rows_marked_done(self, sim):
        store, pool, sharder = build_pool(sim)
        task = Task(task_id=0, key="akey", work=0.001, enqueued_at=0.0)
        pool.submit(task)
        sim.run_for(5.0)
        row = store.get(task_row_key(task))
        assert row["state"] == "done"

    def test_worker_crash_work_reassigned(self, sim):
        store, pool, sharder = build_pool(sim, num_workers=3)
        submit_n(sim, pool, 30, work=0.01)
        sim.call_after(0.1, lambda: pool.crash_worker("worker-0"))
        sim.run_for(30.0)
        assert pool.stats.completed == 30

    def test_add_worker_takes_ranges(self, sim):
        store, pool, sharder = build_pool(sim, num_workers=1)
        submit_n(sim, pool, 10)
        pool.add_worker("worker-new")
        sim.run_for(20.0)
        assert pool.stats.completed == 10
        assert "worker-new" in sharder.assignment.nodes()


class TestPrioritization:
    def test_poison_deprioritized(self, sim):
        store, pool, sharder = build_pool(sim, num_workers=1)
        # poison first in FIFO order; normal tasks should still finish
        # before it completes
        submit_n(sim, pool, 8, key_fn=lambda i: f"a{i}key", poison={0})
        sim.run_for(30.0)
        assert pool.stats.completed == 8
        # normal tasks were not blocked by the 2s poison task
        assert pool.stats.normal_latency.p50 < 1.5


class TestAffinityUnderChurn:
    def test_only_moved_ranges_lose_warmth(self, sim):
        store, pool, sharder = build_pool(sim, num_workers=2)
        # warm up
        submit_n(sim, pool, 40, key_fn=lambda i: f"{'az'[i % 2]}key{i % 4}",
                 work=0.005)
        sim.run_for(10.0)
        warm_before = pool.stats.warm_fraction
        assert warm_before > 0.5
        # move one specific slice; the other worker's cache is untouched
        sharder.move_key("akey0", "worker-1")
        for i in range(40, 80):
            pool.submit(Task(task_id=i, key=f"{'az'[i % 2]}key{i % 4}",
                             work=0.005, enqueued_at=sim.now()))
        sim.run_for(10.0)
        assert pool.stats.completed == 80
