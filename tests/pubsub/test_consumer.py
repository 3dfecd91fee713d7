"""Tests for the consumer processing model."""

import pytest

from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from tests.pubsub.reference_dispatch import CallableReceipt


def msg(payload, key=None, offset=0):
    return Message(
        topic="t", partition=0, offset=offset, key=key,
        payload=payload, publish_time=0.0,
    )


class TestProcessing:
    def test_serial_with_service_time(self, sim):
        consumer = Consumer(sim, "c", service_time=1.0)
        acked = []
        for i in range(3):
            consumer.deliver(msg(i, offset=i), CallableReceipt(ack=lambda i=i: acked.append((i, sim.now())), nack=lambda: None))
        sim.run()
        assert acked == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_handler_false_nacks(self, sim):
        consumer = Consumer(
            sim, "c", handler=lambda m: False
        )
        outcomes = []
        consumer.deliver(msg(1), CallableReceipt(ack=lambda: outcomes.append("ack"),
                                                 nack=lambda: outcomes.append("nack")))
        sim.run()
        assert outcomes == ["nack"]
        assert consumer.failed == 1

    def test_handler_exception_nacks(self, sim):
        def boom(m):
            raise RuntimeError("handler broke")

        consumer = Consumer(sim, "c", handler=boom)
        outcomes = []
        consumer.deliver(msg(1), CallableReceipt(ack=lambda: outcomes.append("ack"),
                                                 nack=lambda: outcomes.append("nack")))
        sim.run()
        assert outcomes == ["nack"]

    def test_service_time_fn_per_message(self, sim):
        consumer = Consumer(
            sim, "c",
            service_time_fn=lambda m: 5.0 if m.payload == "slow" else 0.5,
        )
        done = []
        consumer.deliver(msg("slow"), CallableReceipt(ack=lambda: done.append(("slow", sim.now())), nack=lambda: None))
        consumer.deliver(msg("fast", offset=1), CallableReceipt(ack=lambda: done.append(("fast", sim.now())), nack=lambda: None))
        sim.run()
        # FIFO: fast waits behind slow — head-of-line blocking
        assert done == [("slow", 5.0), ("fast", 5.5)]


class TestCrashRecover:
    def test_crash_loses_queue_no_acks(self, sim):
        consumer = Consumer(sim, "c", service_time=1.0)
        acked = []
        for i in range(3):
            consumer.deliver(msg(i, offset=i), CallableReceipt(ack=lambda i=i: acked.append(i), nack=lambda: None))
        sim.call_after(0.5, consumer.crash)
        sim.run()
        assert acked == []
        assert len(consumer._queue) == 0

    def test_deliveries_while_down_dropped(self, sim):
        consumer = Consumer(sim, "c")
        consumer.crash()
        consumer.deliver(msg(1), CallableReceipt(ack=lambda: None, nack=lambda: None))
        assert consumer.dropped_while_down == 1

    def test_recover_runs_hooks(self, sim):
        consumer = Consumer(sim, "c")
        fired = []
        consumer.on_recover(lambda: fired.append(True))
        consumer.crash()
        consumer.recover()
        assert fired == [True]
        consumer.recover()  # idempotent: no second hook fire
        assert fired == [True]

    def test_crash_mid_processing_no_ack(self, sim):
        consumer = Consumer(sim, "c", service_time=2.0)
        acked = []
        consumer.deliver(msg(1), CallableReceipt(ack=lambda: acked.append(1), nack=lambda: None))
        sim.call_after(1.0, consumer.crash)
        sim.run()
        assert acked == []

    def test_crash_then_recover_mid_service_loses_that_ack(self, sim):
        """A service that began before a crash ends into nothing even if
        the consumer is back by then: no handler run, no ack, and it does
        not end the service of the delivery that arrived after recovery
        (the serial loop stays serial)."""
        broker = Broker(sim)
        broker.create_topic("t", num_partitions=1)
        handled = []
        consumer = Consumer(
            sim, "c", service_time=1.0,
            handler=lambda m: handled.append((m.payload, sim.now())),
        )
        group = broker.consumer_group("t", "g")
        group.join(consumer)
        broker.publish("t", "k", 0)  # in service from 0.0015
        sim.run(until=0.5)
        consumer.crash()
        consumer.recover()
        broker.publish("t", "k", 1)  # recovery's pump: in service from 0.501
        sim.run(until=1.2)
        broker.publish("t", "k", 2)  # must queue behind message 1
        sim.run(until=5.0)
        assert [payload for payload, _ in handled] == [1, 2]
        assert handled[0][1] == pytest.approx(1.501)
        assert handled[1][1] == pytest.approx(2.501)
        assert group.subscription.acked == 2
        sim.run(until=40.0)  # message 0's lease expires: redelivered
        assert [payload for payload, _ in handled] == [1, 2, 0]
        assert group.subscription.redelivered == 1
        assert group.subscription.backlog() == 0


def test_zero_service_drain_of_a_deep_queue_does_not_recurse(sim):
    """5,000 messages published at one instant on 8 partitions land 512
    at a time in one zero-service-time consumer's queue; draining them
    inline must not grow the stack per item."""
    broker = Broker(sim)
    broker.create_topic("t", num_partitions=8)
    consumer = Consumer(sim, "c")
    broker.consumer_group("t", "g").join(consumer)
    for i in range(5_000):
        broker.publish("t", f"k{i}", i)
    sim.run(until=1.0)
    assert consumer.processed == 5_000
    assert consumer.failed == 0


class TestFreeConsumer:
    def test_free_consumer_gets_everything(self, sim):
        broker = Broker(sim)
        broker.create_topic("t", num_partitions=4)
        got_a, got_b = [], []
        broker.free_consumer("t", Consumer(sim, "a", handler=lambda m: got_a.append(m.payload)))
        broker.free_consumer("t", Consumer(sim, "b", handler=lambda m: got_b.append(m.payload)))
        for i in range(40):
            broker.publish("t", f"k{i}", i)
        sim.run_for(5.0)
        assert sorted(got_a) == list(range(40))
        assert sorted(got_b) == list(range(40))
