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

from typing import Dict, List, Optional

from repro.obs.trace import hops
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.resilience.retry import Deadline
from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry
from repro.workqueue.state_cache import StateCache
from repro.workqueue.tasks import Task, TaskStats


class PubsubWorkerPool:
    """A consumer group of workers with per-key state caches."""

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str = "tasks",
        num_workers: int = 4,
        routing: RoutingPolicy = RoutingPolicy.KEY,
        cold_penalty: float = 0.02,
        cache_capacity: int = 256,
        num_partitions: int = 8,
        ack_timeout: float = 30.0,
        create_topic: bool = True,
        task_deadline: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if task_deadline is not None and task_deadline <= 0:
            raise ValueError("task_deadline must be positive when set")
        self.sim = sim
        self.broker = broker
        self.topic = topic
        self.cold_penalty = cold_penalty
        #: per-task completion deadline measured from enqueue; a task
        #: that spent its whole budget queued (e.g. behind a poison task
        #: — the §3.2.4 head-of-line scenario) is shed instead of being
        #: processed uselessly late
        self.task_deadline = task_deadline
        self.metrics = metrics or broker.metrics
        #: tasks are traced as (key=entity key, version=task_id) chains
        self.tracer = tracer
        self.deadline_dropped = 0
        self.stats = TaskStats()
        if create_topic:
            broker.create_topic(topic, num_partitions=num_partitions)
        self.group = broker.consumer_group(
            topic,
            f"{topic}-workers",
            SubscriptionConfig(routing=routing, ack_timeout=ack_timeout),
        )
        self.workers: List[Consumer] = []
        self.caches: Dict[str, StateCache] = {}
        self._completed_ids: set[int] = set()
        for idx in range(num_workers):
            self._add_worker(f"worker-{idx}", cache_capacity)

    def _add_worker(self, name: str, cache_capacity: int) -> Consumer:
        cache = StateCache(cache_capacity)
        self.caches[name] = cache

        def service_time(message: Message, cache: StateCache = cache) -> float:
            task = Task.from_payload(message.payload)
            if self._past_deadline(task):
                return 0.0  # shed without paying the work cost
            warm = cache.contains(task.key)
            return task.work if warm else task.work + self.cold_penalty

        def handler(message: Message, name: str = name, cache: StateCache = cache) -> bool:
            task = Task.from_payload(message.payload)
            if task.task_id in self._completed_ids:
                return True  # duplicate redelivery; idempotent
            if self._past_deadline(task):
                # ack-and-drop: redelivering an already-late task
                # elsewhere would just spread the lateness
                self._completed_ids.add(task.task_id)
                self.deadline_dropped += 1
                self.metrics.counter("resilience.workqueue.deadline_dropped").inc()
                return True
            warm = cache.touch(task.key)
            self._completed_ids.add(task.task_id)
            self.stats.record(task, self.sim.now(), warm)
            if self.tracer is not None:
                self.tracer.record(
                    hops.TASK_COMPLETE, name,
                    key=task.key, version=task.task_id, worker=name,
                )
            return True

        worker = Consumer(
            self.sim, name, handler=handler, service_time_fn=service_time
        )
        self.workers.append(worker)
        self.group.join(worker)
        return worker

    def _past_deadline(self, task: Task) -> bool:
        if self.task_deadline is None:
            return False
        return Deadline.at(self.sim, task.enqueued_at + self.task_deadline).expired

    # ------------------------------------------------------------------
    # driving

    def submit(self, task: Task) -> None:
        """Publish a task message."""
        if self.tracer is not None:
            self.tracer.record(
                hops.TASK_ENQUEUE, "workqueue",
                key=task.key, version=task.task_id, queue=self.topic,
            )
        self.broker.publish(self.topic, task.key, task.payload())

    def add_worker(self, name: str, cache_capacity: int = 256) -> Consumer:
        """Scale out (triggers key-hash reshuffle for KEY routing)."""
        return self._add_worker(name, cache_capacity)

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

    # ------------------------------------------------------------------
    # introspection

    def backlog(self) -> int:
        return self.group.backlog()

    @property
    def completed(self) -> int:
        return self.stats.completed

    def queue_depths(self) -> Dict[str, int]:
        return {worker.name: worker.queue_depth for worker in self.workers}
