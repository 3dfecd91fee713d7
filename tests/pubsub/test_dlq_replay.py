"""Tests for the §3.3 'ad hoc storage APIs': DLQs and replay/seek."""

import pytest

from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.dlq import DeadLetterPolicy
from repro.pubsub.errors import OffsetOutOfRangeError
from repro.pubsub.log import RetentionPolicy
from repro.pubsub.replay import (
    create_snapshot,
    seek_to_offset,
    seek_to_snapshot,
    seek_to_timestamp,
)
from repro.pubsub.subscription import SubscriptionConfig
from repro.pubsub.broker import BrokerConfig


class TestDeadLetterQueue:
    def test_poison_message_dead_letters(self, sim):
        broker = Broker(sim)
        broker.create_topic("t", num_partitions=1)
        group = broker.consumer_group(
            "t", "g",
            SubscriptionConfig(
                ack_timeout=0.5,
                dead_letter=DeadLetterPolicy(dlq_topic="t-dlq", max_attempts=3),
            ),
        )
        group.join(Consumer(sim, "c", handler=lambda m: False))  # always fails
        broker.publish("t", "poison", {"bad": True})
        sim.run_for(30.0)
        assert group.subscription.dead_lettered == 1
        dlq = broker.topic("t-dlq")
        assert dlq.total_messages_published == 1
        assert dlq.partitions[0]._messages[0].payload == {"bad": True}

    def test_dlq_drains_the_subscription(self, sim):
        """After dead-lettering, the source subscription moves on —
        hiding the unprocessed message in an operational side channel."""
        broker = Broker(sim)
        broker.create_topic("t", num_partitions=1)
        group = broker.consumer_group(
            "t", "g",
            SubscriptionConfig(
                ack_timeout=0.5,
                dead_letter=DeadLetterPolicy(dlq_topic="dlq", max_attempts=2),
            ),
        )
        got = []

        def handler(m):
            if m.payload == "bad":
                return False
            got.append(m.payload)
            return True

        group.join(Consumer(sim, "c", handler=handler))
        broker.publish("t", None, "bad")
        broker.publish("t", None, "good")
        sim.run_for(30.0)
        assert got == ["good"]
        assert group.backlog() == 0

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            DeadLetterPolicy(dlq_topic="d", max_attempts=0)


class TestReplay:
    def _setup(self, sim, retention=None):
        broker = Broker(sim, BrokerConfig(gc_interval=5.0))
        broker.create_topic(
            "t", num_partitions=1,
            retention=retention or RetentionPolicy(),
        )
        group = broker.consumer_group("t", "g")
        got = []
        group.join(Consumer(sim, "c", handler=lambda m: got.append(m.payload)))
        return broker, group, got

    def test_snapshot_and_seek_back(self, sim):
        broker, group, got = self._setup(sim)
        snapshot = create_snapshot("s1", group.subscription, sim.now())
        for i in range(5):
            broker.publish("t", None, i)
        sim.run_for(2.0)
        assert got == [0, 1, 2, 3, 4]
        seek_to_snapshot(group.subscription, snapshot)
        sim.run_for(2.0)
        assert got == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]

    def test_snapshot_replay_fails_after_gc(self, sim):
        """The §3.3 limitation: a snapshot is only offsets; GC makes it
        unreplayable."""
        broker, group, got = self._setup(
            sim, retention=RetentionPolicy(max_age=10.0)
        )
        snapshot = create_snapshot("s1", group.subscription, sim.now())
        broker.publish("t", None, "x")
        sim.run(until=60.0)  # GC sweep deletes the message
        with pytest.raises(OffsetOutOfRangeError):
            seek_to_snapshot(group.subscription, snapshot)

    def test_snapshot_topic_mismatch(self, sim):
        broker, group, _ = self._setup(sim)
        broker.create_topic("other", num_partitions=1)
        other = broker.subscribe("other", "og")
        snapshot = create_snapshot("s1", other, sim.now())
        with pytest.raises(ValueError):
            seek_to_snapshot(group.subscription, snapshot)

    def test_seek_to_timestamp(self, sim):
        broker, group, got = self._setup(sim)
        broker.publish("t", None, "early")
        sim.run_for(5.0)
        mid = sim.now()
        broker.publish("t", None, "late")
        sim.run_for(2.0)
        seek_to_timestamp(group.subscription, mid)
        sim.run_for(2.0)
        assert got == ["early", "late", "late"]

    def test_seek_to_offset_below_floor_raises(self, sim):
        broker, group, _ = self._setup(
            sim, retention=RetentionPolicy(max_age=1.0)
        )
        broker.publish("t", None, "x")
        sim.run(until=30.0)
        with pytest.raises(OffsetOutOfRangeError):
            seek_to_offset(group.subscription, 0, 0)
