"""Task model shared by both work-queue implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.metrics import Histogram

#: extra service time a worker pays for a task whose key's state is not
#: in its cache (both pools)
COLD_PENALTY = 0.05


@dataclass(frozen=True)
class Task:
    """One unit of keyed work.

    ``key`` identifies the entity the task concerns (affinity target);
    ``work`` is the base processing time; ``poison`` marks the
    pathological tasks used by head-of-line experiments.
    """

    task_id: int
    key: str
    work: float
    enqueued_at: float
    poison: bool = False

    def payload(self) -> Dict[str, object]:
        """Encode for a pubsub message or a store row."""
        return {
            "task_id": self.task_id,
            "key": self.key,
            "work": self.work,
            "enqueued_at": self.enqueued_at,
            "poison": self.poison,
            "state": "pending",
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "Task":
        return Task(
            task_id=int(payload["task_id"]),  # type: ignore[arg-type]
            key=str(payload["key"]),
            work=float(payload["work"]),  # type: ignore[arg-type]
            enqueued_at=float(payload["enqueued_at"]),  # type: ignore[arg-type]
            poison=bool(payload["poison"]),
        )


class TaskStats:
    """Completion accounting shared by the worker pools."""

    def __init__(self) -> None:
        self.completed = 0
        self.completed_poison = 0
        self.warm_hits = 0
        self.cold_misses = 0
        self.latency = Histogram("task.latency")
        self.normal_latency = Histogram("task.latency.normal")

    def record(self, task: Task, completed_at: float, warm: bool) -> None:
        self.completed += 1
        if task.poison:
            self.completed_poison += 1
        if warm:
            self.warm_hits += 1
        else:
            self.cold_misses += 1
        elapsed = completed_at - task.enqueued_at
        self.latency.observe(elapsed)
        if not task.poison:
            self.normal_latency.observe(elapsed)

    @property
    def warm_fraction(self) -> float:
        total = self.warm_hits + self.cold_misses
        return self.warm_hits / total if total else 0.0
