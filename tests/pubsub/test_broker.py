"""Tests for the broker: topics, sweeps, accounting."""

import pytest

from repro.pubsub.broker import Broker, BrokerConfig
from repro.pubsub.errors import PubsubError, UnknownTopicError
from repro.pubsub.log import CompactionPolicy, RetentionPolicy


class TestTopics:
    def test_create_and_lookup(self, sim):
        broker = Broker(sim)
        topic = broker.create_topic("t", num_partitions=3)
        assert broker.topic("t") is topic
        assert sorted(broker._topics) == ["t"]

    def test_duplicate_rejected(self, sim):
        broker = Broker(sim)
        broker.create_topic("t")
        with pytest.raises(PubsubError):
            broker.create_topic("t")

    def test_unknown_topic(self, sim):
        broker = Broker(sim)
        with pytest.raises(UnknownTopicError):
            broker.publish("ghost", None, 1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BrokerConfig(gc_interval=0)


class TestSweeps:
    def test_gc_sweep_runs_periodically(self, sim):
        broker = Broker(sim, BrokerConfig(gc_interval=10.0))
        broker.create_topic(
            "t", retention=RetentionPolicy(max_age=5.0)
        )
        broker.publish("t", None, "old")
        sim.run(until=30.0)
        assert sum(log.messages_gced for log in broker.topic("t").partitions) == 1
        assert broker.gc_deleted == 1

    def test_compaction_sweep(self, sim):
        broker = Broker(sim, BrokerConfig(compaction_interval=10.0))
        broker.create_topic(
            "t", compaction=CompactionPolicy(recent_window=5.0)
        )
        broker.publish("t", "k", "v1")
        broker.publish("t", "k", "v2")
        sim.run(until=30.0)
        assert len(broker.topic("t").partitions[0]._messages) == 1


class TestAccounting:
    def test_hard_state_bytes(self, sim):
        broker = Broker(sim)
        broker.create_topic("t")
        broker.publish("t", "k", "payload")
        assert broker.hard_state_bytes > 0

