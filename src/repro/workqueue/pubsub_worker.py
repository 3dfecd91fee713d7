"""Pubsub work queue: tasks as messages, workers as a consumer group.

The §3.2.4 baseline.  Its structural properties (not bugs — contract
consequences):

- **FIFO per worker**: the broker pushes messages into each worker's
  queue; a poison task stalls everything queued behind it on that
  worker (head-of-line blocking).  The worker cannot reorder: the
  messages are already in its lap.
- **Affinity by key hash over current membership**: stable while
  membership is stable, but reshuffles wholesale when a worker joins or
  leaves, and cannot follow an application auto-sharder.
- At-least-once: a worker crash redelivers unacked tasks elsewhere
  after the ack timeout (conditional completion writes make the work
  idempotent in both implementations).
"""

from __future__ import annotations

from typing import Dict, List

from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.sim.kernel import Simulation
from repro.workqueue.state_cache import StateCache
from repro.workqueue.tasks import COLD_PENALTY, Task, TaskStats


class PubsubWorkerPool:
    """A consumer group of workers with per-key state caches."""

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str = "tasks",
        num_workers: int = 4,
        routing: RoutingPolicy = RoutingPolicy.KEY,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.sim = sim
        self.broker = broker
        self.topic = topic
        self.stats = TaskStats()
        broker.create_topic(topic, num_partitions=8)
        self.group = broker.consumer_group(
            topic,
            f"{topic}-workers",
            SubscriptionConfig(routing=routing, ack_timeout=30.0),
        )
        self.workers: List[Consumer] = []
        self.caches: Dict[str, StateCache] = {}
        self._completed_ids: set[int] = set()
        for idx in range(num_workers):
            self.add_worker(f"worker-{idx}")

    def add_worker(self, name: str) -> Consumer:
        """Join one more worker (scale out: KEY routing reshuffles keys)."""
        cache = StateCache()
        self.caches[name] = cache

        def service_time(message: Message, cache: StateCache = cache) -> float:
            task = Task.from_payload(message.payload)
            warm = cache.contains(task.key)
            return task.work if warm else task.work + COLD_PENALTY

        def handler(message: Message, name: str = name, cache: StateCache = cache) -> bool:
            task = Task.from_payload(message.payload)
            if task.task_id in self._completed_ids:
                return True  # duplicate redelivery; idempotent
            warm = cache.touch(task.key)
            self._completed_ids.add(task.task_id)
            self.stats.record(task, self.sim.now(), warm)
            return True

        worker = Consumer(
            self.sim, name, handler=handler, service_time_fn=service_time
        )
        self.workers.append(worker)
        self.group.join(worker)
        return worker

    # ------------------------------------------------------------------
    # driving

    def submit(self, task: Task) -> None:
        """Publish a task message."""
        self.broker.publish(self.topic, task.key, task.payload())

    def crash_worker(self, name: str) -> None:
        """Worker failure; its unacked tasks redeliver after timeout."""
        for worker in self.workers:
            if worker.name == name:
                worker.crash()
                return
        raise KeyError(name)

    def recover_worker(self, name: str) -> None:
        for worker in self.workers:
            if worker.name == name:
                worker.recover()
                return
        raise KeyError(name)
