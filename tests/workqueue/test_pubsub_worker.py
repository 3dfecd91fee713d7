"""Tests for the pubsub worker pool."""

import pytest

from repro.pubsub.broker import Broker
from repro.pubsub.subscription import RoutingPolicy
from repro.workqueue.pubsub_worker import PubsubWorkerPool
from repro.workqueue.state_cache import StateCache
from repro.workqueue.tasks import Task


def submit_n(sim, pool, n, key_fn=lambda i: f"k{i % 5}", work=0.001, poison=()):
    for i in range(n):
        pool.submit(Task(
            task_id=i, key=key_fn(i), work=5.0 if i in poison else work,
            enqueued_at=sim.now(), poison=(i in poison),
        ))


class TestCompletion:
    def test_all_tasks_complete(self, sim):
        pool = PubsubWorkerPool(sim, Broker(sim), num_workers=3)
        submit_n(sim, pool, 30)
        sim.run_for(10.0)
        assert pool.stats.completed == 30

    def test_crash_redelivers_and_dedupes(self, sim):
        pool = PubsubWorkerPool(
            sim, Broker(sim), num_workers=2,
            routing=RoutingPolicy.RANDOM,
        )
        submit_n(sim, pool, 20, work=0.05)
        sim.call_after(0.2, lambda: pool.crash_worker("worker-0"))
        sim.call_after(5.0, lambda: pool.recover_worker("worker-0"))
        sim.run_for(60.0)
        assert pool.stats.completed == 20  # exactly once despite redelivery

    def test_add_worker_scales(self, sim):
        pool = PubsubWorkerPool(sim, Broker(sim), num_workers=1)
        pool.add_worker("worker-extra")
        submit_n(sim, pool, 10)
        sim.run_for(10.0)
        assert pool.stats.completed == 10

    def test_unknown_worker_name(self, sim):
        pool = PubsubWorkerPool(sim, Broker(sim), num_workers=1)
        with pytest.raises(KeyError):
            pool.crash_worker("nope")


class TestAffinity:
    def test_key_routing_warms_caches(self, sim):
        pool = PubsubWorkerPool(
            sim, Broker(sim), num_workers=3, routing=RoutingPolicy.KEY,
        )
        submit_n(sim, pool, 60, key_fn=lambda i: f"k{i % 3}")
        sim.run_for(20.0)
        # 3 keys, key-affine: after the first touch everything is warm
        assert pool.stats.warm_fraction > 0.9

    def test_random_routing_colder(self, sim, monkeypatch):
        monkeypatch.setattr(StateCache, "capacity", 2)
        pool = PubsubWorkerPool(
            sim, Broker(sim), num_workers=3, routing=RoutingPolicy.RANDOM,
        )
        submit_n(sim, pool, 60, key_fn=lambda i: f"k{i % 6}")
        sim.run_for(20.0)
        key_pool = PubsubWorkerPool(
            sim, Broker(sim), num_workers=3, routing=RoutingPolicy.KEY,
            topic="tasks2",
        )
        submit_n(sim, key_pool, 60, key_fn=lambda i: f"k{i % 6}")
        sim.run_for(20.0)
        assert key_pool.stats.warm_fraction > pool.stats.warm_fraction


class TestHeadOfLine:
    def test_poison_blocks_same_worker_queue(self, sim):
        pool = PubsubWorkerPool(
            sim, Broker(sim), num_workers=1, routing=RoutingPolicy.KEY,
        )
        # poison first, normal tasks behind it on the only worker
        submit_n(sim, pool, 10, work=0.001, poison={0})
        sim.run_for(30.0)
        assert pool.stats.completed == 10
        # normal tasks waited for the 5s poison task
        assert pool.stats.normal_latency.p50 > 4.0
