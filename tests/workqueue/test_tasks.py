"""Tests for the task model and stats."""

from repro.workqueue.tasks import Task, TaskStats


class TestTask:
    def test_payload_roundtrip(self):
        task = Task(task_id=7, key="k", work=0.5, enqueued_at=1.0, poison=True)
        assert Task.from_payload(task.payload()) == task

    def test_payload_state_pending(self):
        assert Task(1, "k", 0.1, 0.0).payload()["state"] == "pending"


class TestTaskStats:
    def test_record_tracks_latency_and_warmth(self):
        stats = TaskStats()
        stats.record(Task(1, "k", 0.1, enqueued_at=1.0), completed_at=3.0, warm=True)
        stats.record(Task(2, "k", 0.1, enqueued_at=1.0, poison=True),
                     completed_at=6.0, warm=False)
        assert stats.completed == 2
        assert stats.completed_poison == 1
        assert stats.warm_fraction == 0.5
        assert stats.latency.count == 2
        # normal-latency excludes poison tasks
        assert stats.normal_latency.count == 1
        assert stats.normal_latency.quantile(1.0) == 2.0

    def test_empty_warm_fraction(self):
        assert TaskStats().warm_fraction == 0.0
