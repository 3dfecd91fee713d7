"""Watch-based work queue: tasks as rows, workers as range watchers.

The §4.3 reframing: "applications use an auto-sharding system to
dynamically assign and replicate ranges of keys to workers based on
load and health.  Each worker initially queries the database for
assigned entities requiring attention, and then uses watch to identify
other such entities.  The application can then prioritize entities,
fully mitigating head-of-line blocking problems."

Task rows are keyed ``<entity-key>/<task-id>`` so range assignment is
entity-affine.  Each worker materializes its ranges with linked caches
(snapshot + watch + resync), picks its next task *by its own policy*
(non-poison first when prioritization is on — the HoL mitigation), and
completes tasks with a conditional store transaction, which makes
at-least-once reprocessing after worker churn harmless.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro._types import Key, KeyRange
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.sharding.assignment import Assignment
from repro.sharding.autosharder import AutoSharder
from repro.sim.kernel import Simulation, Timeout
from repro.storage.errors import ConflictError
from repro.storage.kv import MVCCStore
from repro.workqueue.state_cache import StateCache
from repro.workqueue.tasks import COLD_PENALTY, Task, TaskStats

#: how long an idle worker waits before looking for a pending task again
IDLE_POLL = 0.02


def task_row_key(task: Task) -> Key:
    """Store key for a task row (entity-prefixed for affinity)."""
    return f"{task.key}/{task.task_id:010d}"


class WatchWorker:
    """One worker: owned ranges, pending view, serial work loop."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        pool: "WatchWorkerPool",
    ) -> None:
        self.sim = sim
        self.name = name
        self.pool = pool
        self.state_cache = StateCache()
        self._caches: Dict[KeyRange, LinkedCache] = {}
        self._owned_generation = -1
        self._skip: set[Key] = set()  # completed locally, event in flight
        self.up = True
        sim.spawn(self._work_loop(), name=f"watchworker-{name}")

    # ------------------------------------------------------------------
    # sharder listener

    def on_assignment(self, assignment: Assignment) -> None:
        if assignment.generation <= self._owned_generation:
            return
        self._owned_generation = assignment.generation
        new_ranges = set(assignment.ranges_of(self.name))
        for key_range in list(self._caches):
            if key_range not in new_ranges:
                self._caches.pop(key_range).stop()
        for key_range in new_ranges:
            if key_range not in self._caches:
                cache = LinkedCache(
                    self.sim,
                    self.pool.watchable,
                    self.pool.snapshot_fn,
                    key_range,
                    config=LinkedCacheConfig(snapshot_latency=0.02),
                    name=f"{self.name}:{key_range}",
                )
                self._caches[key_range] = cache
                cache.start()
        self.state_cache.drop_outside(
            lambda key: any(r.contains(key) for r in new_ranges)
        )

    # ------------------------------------------------------------------
    # work loop

    def _work_loop(self):
        while True:
            if not self.up:
                yield Timeout(0.05)
                continue
            picked = self._pick()
            if picked is None:
                yield Timeout(IDLE_POLL)
                continue
            row_key, task = picked
            warm = self.state_cache.touch(task.key)
            cost = task.work if warm else task.work + COLD_PENALTY
            # report load: a worker that joins later takes the slice
            # with the most recorded load (AutoSharder.add_node)
            self.pool.sharder.record_load(row_key, weight=cost)
            yield Timeout(cost)
            if not self.up:
                continue  # crashed mid-task: no completion write
            if self._complete(row_key) == "done":
                self.pool.stats.record(task, self.sim.now(), warm)

    def _pick(self) -> Optional[Tuple[Key, Task]]:
        """Choose the next pending task in our ranges, by policy."""
        best: Optional[Tuple[Tuple, Key, Task]] = None
        for cache in self._caches.values():
            if not cache.available:
                continue
            for row_key, payload in cache.data.items_latest(cache.key_range).items():
                if payload.get("state") != "pending" or row_key in self._skip:
                    continue
                task = Task.from_payload(payload)
                # poison tasks go last, so they cannot starve the rest
                rank = (1 if task.poison else 0, task.enqueued_at)
                if best is None or rank < best[0]:
                    best = (rank, row_key, task)
        if best is None:
            return None
        return (best[1], best[2])

    def _complete(self, row_key: Key) -> str:
        """Conditional completion write.

        Returns ``"done"`` (we committed it), ``"taken"`` (someone else
        already completed it), or ``"conflict"`` (the commit raced
        another writer; whoever picks the row next redoes the task)."""
        self._skip.add(row_key)
        txn = self.pool.store.transaction()
        row = txn.get(row_key)
        if row is None or row.get("state") != "pending":
            txn.abort()
            return "taken"
        done = dict(row)
        done["state"] = "done"
        txn.put(row_key, done)
        try:
            txn.commit()
        except ConflictError:
            return "conflict"
        return "done"

    # ------------------------------------------------------------------
    # failure model

    def crash(self) -> None:
        self.up = False
        for cache in self._caches.values():
            cache.stop()
        self._caches.clear()

    def recover(self) -> None:
        self.up = True
        self._owned_generation = -1  # take whatever the next notify says


class WatchWorkerPool:
    """Auto-sharded fleet of watch workers over a task store."""

    def __init__(
        self,
        sim: Simulation,
        store: MVCCStore,
        watchable,
        sharder: AutoSharder,
        num_workers: int = 4,
    ) -> None:
        self.sim = sim
        self.store = store
        self.watchable = watchable
        self.sharder = sharder
        self.stats = TaskStats()
        self.workers: Dict[str, WatchWorker] = {}
        for idx in range(num_workers):
            name = f"worker-{idx}"
            worker = WatchWorker(sim, name, self)
            self.workers[name] = worker
            sharder.subscribe(worker.on_assignment)

    def snapshot_fn(self, key_range: KeyRange):
        version = self.store.last_version
        return version, dict(self.store.scan(key_range, version))

    # ------------------------------------------------------------------
    # driving

    def submit(self, task: Task) -> None:
        """Write the task row; watchers pick it up."""
        self.store.put(task_row_key(task), task.payload())

    def crash_worker(self, name: str) -> None:
        """Fail a worker and tell the sharder to reassign its ranges."""
        self.workers[name].crash()
        self.sharder.remove_node(name)

    def add_worker(self, name: str) -> WatchWorker:
        worker = WatchWorker(self.sim, name, self)
        self.workers[name] = worker
        self.sharder.subscribe(worker.on_assignment)
        self.sharder.add_node(name)
        return worker
