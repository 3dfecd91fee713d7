"""Tests for subscriptions: routing, acks, redelivery, silent loss."""

import pytest

from repro.pubsub.broker import Broker, BrokerConfig
from repro.pubsub.consumer import Consumer
from repro.pubsub.log import RetentionPolicy
from repro.pubsub.subscription import (
    RoutingPolicy,
    SubscriptionConfig,
)


def make_broker(sim, **topic_kwargs):
    broker = Broker(sim)
    broker.create_topic("t", **topic_kwargs)
    return broker


class TestDelivery:
    def test_single_consumer_receives_all_in_order(self, sim):
        broker = make_broker(sim, num_partitions=1)
        group = broker.consumer_group("t", "g")
        got = []
        group.join(Consumer(sim, "c", handler=lambda m: got.append(m.payload)))
        for i in range(20):
            broker.publish("t", None, i)
        sim.run_for(5.0)
        assert got == list(range(20))

    def test_each_message_processed_once_per_group(self, sim):
        broker = make_broker(sim, num_partitions=4)
        group = broker.consumer_group(
            "t", "g", SubscriptionConfig(routing=RoutingPolicy.RANDOM)
        )
        got = []
        for i in range(3):
            group.join(Consumer(sim, f"c{i}", handler=lambda m: got.append(m.payload)))
        for i in range(60):
            broker.publish("t", f"k{i}", i)
        sim.run_for(10.0)
        assert sorted(got) == list(range(60))

    def test_two_groups_each_get_everything(self, sim):
        broker = make_broker(sim, num_partitions=2)
        counts = {"g1": 0, "g2": 0}
        for gname in counts:
            group = broker.consumer_group("t", gname)
            def handler(m, gname=gname):
                counts[gname] += 1
                return True
            group.join(Consumer(sim, f"{gname}-c", handler=handler))
        for i in range(30):
            broker.publish("t", None, i)
        sim.run_for(5.0)
        assert counts == {"g1": 30, "g2": 30}


class TestRouting:
    def test_key_routing_affine(self, sim):
        broker = make_broker(sim, num_partitions=4)
        group = broker.consumer_group(
            "t", "g", SubscriptionConfig(routing=RoutingPolicy.KEY)
        )
        seen_by = {}
        for i in range(3):
            def handler(m, name=f"c{i}"):
                seen_by.setdefault(m.key, set()).add(name)
                return True
            group.join(Consumer(sim, f"c{i}", handler=handler))
        for i in range(90):
            broker.publish("t", f"key-{i % 9}", i)
        sim.run_for(10.0)
        # every key handled by exactly one member
        assert all(len(members) == 1 for members in seen_by.values())

    def test_partition_routing_assigns_partitions(self, sim):
        broker = make_broker(sim, num_partitions=4)
        group = broker.consumer_group(
            "t", "g", SubscriptionConfig(routing=RoutingPolicy.PARTITION)
        )
        seen_by = {}
        for i in range(2):
            def handler(m, name=f"c{i}"):
                seen_by.setdefault(m.partition, set()).add(name)
                return True
            group.join(Consumer(sim, f"c{i}", handler=handler))
        for i in range(80):
            broker.publish("t", f"k{i}", i)
        sim.run_for(10.0)
        assert all(len(members) == 1 for members in seen_by.values())

    def test_membership_changes_rebalance(self, sim):
        broker = make_broker(sim, num_partitions=2)
        group = broker.consumer_group("t", "g")
        c1 = Consumer(sim, "c1", handler=lambda m: True)
        group.join(c1)
        sub = group.subscription
        assert set(sub._partition_assignment.values()) == {"c1"}
        c2 = Consumer(sim, "c2", handler=lambda m: True)
        group.join(c2)
        assert set(sub._partition_assignment.values()) == {"c1", "c2"}
        group.leave(c1)
        assert set(sub._partition_assignment.values()) == {"c2"}

    def test_duplicate_member_rejected(self, sim):
        broker = make_broker(sim)
        group = broker.consumer_group("t", "g")
        c = Consumer(sim, "c")
        group.join(c)
        with pytest.raises(ValueError):
            group.subscription.add_member(c)


class TestAtLeastOnce:
    def test_crash_redelivers_to_survivor(self, sim):
        broker = make_broker(sim, num_partitions=1)
        group = broker.consumer_group(
            "t", "g",
            SubscriptionConfig(routing=RoutingPolicy.RANDOM, ack_timeout=1.0),
        )
        got = []
        victim = Consumer(sim, "victim", handler=lambda m: got.append(m.payload))
        survivor = Consumer(sim, "survivor", handler=lambda m: got.append(m.payload))
        group.join(victim)
        group.join(survivor)
        victim.crash()
        for i in range(10):
            broker.publish("t", None, i)
        sim.run_for(30.0)
        assert sorted(got) == list(range(10))

    def test_nack_redelivers_promptly(self, sim):
        broker = make_broker(sim, num_partitions=1)
        group = broker.consumer_group(
            "t", "g", SubscriptionConfig(ack_timeout=100.0)
        )
        attempts = []

        def flaky(m):
            attempts.append(sim.now())
            return len(attempts) >= 3  # nack twice, then ack

        group.join(Consumer(sim, "c", handler=flaky))
        broker.publish("t", None, "x")
        sim.run_for(10.0)
        assert len(attempts) == 3
        assert attempts[-1] < 5.0  # redelivered promptly, not at ack_timeout

    def test_backlog_accumulates_while_down(self, sim):
        broker = make_broker(sim, num_partitions=1)
        group = broker.consumer_group("t", "g")
        consumer = Consumer(sim, "c")
        group.join(consumer)
        consumer.crash()
        for i in range(50):
            broker.publish("t", None, i)
        sim.run_for(5.0)
        assert group.backlog() == 50
        consumer.recover()
        sim.run_for(60.0)
        assert group.backlog() == 0
        assert consumer.processed == 50


class TestSilentLoss:
    def test_gc_loss_counted_but_not_signalled(self, sim):
        broker = Broker(sim, BrokerConfig(gc_interval=5.0))
        broker.create_topic(
            "t", num_partitions=1, retention=RetentionPolicy(max_age=10.0)
        )
        group = broker.consumer_group("t", "g")
        consumer = Consumer(sim, "c")
        group.join(consumer)
        consumer.crash()
        for i in range(20):
            sim.call_at(i * 1.0, lambda i=i: broker.publish("t", None, i))
        sim.call_at(60.0, consumer.recover)
        sim.run_for(120.0)
        assert group.subscription.lost_to_gc == 20
        assert consumer.processed == 0

    def test_seek_resets_cursor(self, sim):
        broker = make_broker(sim, num_partitions=1)
        group = broker.consumer_group("t", "g")
        got = []
        group.join(Consumer(sim, "c", handler=lambda m: got.append(m.payload)))
        for i in range(5):
            broker.publish("t", None, i)
        sim.run_for(2.0)
        group.subscription.seek(0, 0)
        sim.run_for(2.0)
        assert got == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
