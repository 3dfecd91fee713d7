"""Integration: the causal stage's stamp carriage and pubsub gate.

The unit tests (test_stamp/test_buffer) pin the core; these tests pin
how :mod:`repro.causal.stage` composes it around the pipelines — the
stamping CDC ``publish_fn`` and the stamped relay link/endpoint pair,
each beside its plain counterpart that ships nothing extra — plus the
pubsub gate (:class:`GatedConsumer`) and the places no gate is built:
the replication appliers and the pubsub edge frontend deliver in
arrival order.  The watch frontend's gates are in
tests/edge/test_causal_reconnect.py.
"""

import pytest

from repro._types import Mutation
from repro.causal import (
    CausalBufferConfig,
    CausalStamp,
    CausalStamper,
    StampIndex,
)
from repro.causal.stage import (
    GatedConsumer,
    StampedFanoutEndpoint,
    StampedFanoutLink,
    stamped_publish,
)
from repro.cdc.publisher import CdcPublisher
from repro.core.events import ChangeEvent
from repro.core.relay import ReliableFanoutEndpoint, ReliableFanoutLink
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, PubsubEdgeFrontend
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.pubsub.broker import Broker
from repro.pubsub.subscription import SubscriptionConfig
from repro.replication.appliers import ConcurrentApplier
from repro.replication.target import ReplicaStore
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore


def _payload(version, value, stamp=None):
    payload = {
        "op": "put", "value": value, "version": version,
        "txn_index": 0, "txn_size": 1,
    }
    if stamp is not None:
        payload["causal"] = stamp
    return payload


# ----------------------------------------------------------------------
# CDC stamping


def test_cdc_publisher_stamps_payloads_from_index(sim):
    store = MVCCStore(clock=sim.now)
    stamps = StampIndex()
    CausalStamper(window=2, index=stamps).observe_store(store)
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=1)
    CdcPublisher(
        sim, store.history, broker, "cdc",
        publish_fn=stamped_publish(broker.publish, stamps),
    )
    store.commit({"data": Mutation.put(1)})
    store.commit({"ptr": Mutation.put({"ref": "data"})})
    sim.run_for(1.0)
    log = broker.topic("cdc").partitions[0]
    messages = log.read_from(0, limit=10)
    assert [m.key for m in messages] == ["data", "ptr"]
    ptr_stamp = messages[1].payload["causal"]
    assert ptr_stamp == stamps.lookup("ptr", 2)
    assert ("data", 1) in ptr_stamp.deps
    # the stamp is appended last: every other field keeps its place
    assert list(messages[1].payload) == [
        "op", "value", "version", "txn_index", "txn_size", "causal",
    ]


def test_cdc_publisher_without_index_ships_unstamped(sim):
    store = MVCCStore(clock=sim.now)
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=1)
    CdcPublisher(sim, store.history, broker, "cdc")
    store.commit({"data": Mutation.put(1)})
    sim.run_for(1.0)
    (message,) = broker.topic("cdc").partitions[0].read_from(0, limit=10)
    assert "causal" not in message.payload


# ----------------------------------------------------------------------
# replication appliers


class RecordingReplica(ReplicaStore):
    def __init__(self):
        super().__init__()
        self.order = []

    def apply_naive(self, key, mutation, version):
        self.order.append(key)
        super().apply_naive(key, mutation, version)


def _publish_inverted(sim, broker, topic="cdc"):
    """ptr (v2, depends on data v1) reaches consumers before data: the
    pointer is published — and delivered — a beat before its dep shows
    up (a late retransmitted publish, in wire terms)."""
    broker.publish(
        topic, "ptr", _payload(2, {"ref": "data"}, CausalStamp(2, (("data", 1),)))
    )
    sim.run_for(0.05)
    broker.publish(topic, "data", _payload(1, 7, CausalStamp(1, ())))


def test_concurrent_applier_fifo_applies_in_arrival_order(sim):
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=2)
    target = RecordingReplica()
    ConcurrentApplier(sim, broker, "cdc", target, workers=1, service_time=0.001)
    _publish_inverted(sim, broker)
    sim.run_for(2.0)
    assert target.order == ["ptr", "data"]


# ----------------------------------------------------------------------
# relay link: stamps ride event frames


def test_fanout_link_ships_stamps_to_endpoint_index(sim):
    net = Network(sim, NetworkConfig(base_latency=0.001))
    source = WatchSystem(sim, name="src")
    remote = WatchSystem(sim, name="edge")
    source_index = StampIndex()
    stamp = CausalStamp(1, (("other", 3),))
    source_index.record("k", 1, stamp)
    endpoint = StampedFanoutEndpoint(sim, net, "ep", remote)
    StampedFanoutLink(sim, source, net, "link", remote="ep", stamps=source_index)
    source.append(ChangeEvent("k", Mutation.put(1), 1))
    sim.run_for(1.0)
    # the stamp crossed the wire in-band and rebuilt on the far side
    assert endpoint.stamps.lookup("k", 1) == stamp
    assert endpoint.events_ingested == 1


def test_fanout_link_without_index_ships_nothing_extra(sim):
    net = Network(sim, NetworkConfig(base_latency=0.001))
    source = WatchSystem(sim, name="src")
    remote = WatchSystem(sim, name="edge")
    endpoint = StampedFanoutEndpoint(sim, net, "ep", remote)
    link = ReliableFanoutLink(sim, source, net, "link", remote="ep")
    source.append(ChangeEvent("k", Mutation.put(1), 1))
    sim.run_for(1.0)
    assert endpoint.events_ingested == 1
    assert endpoint.stamps.lookup("k", 1) is None
    assert len(endpoint.stamps) == 0
    # the plain link's frame has no causal key at all
    event = ChangeEvent("k", Mutation.put(2), 2)
    assert link._event_frame(event) == {"kind": "event", "event": event}


def test_plain_endpoint_ingests_stamped_frames(sim):
    # a stamped link feeding a plain endpoint: the stamp is ignored,
    # the event still lands
    net = Network(sim, NetworkConfig(base_latency=0.001))
    source = WatchSystem(sim, name="src")
    remote = WatchSystem(sim, name="edge")
    stamps = StampIndex()
    stamps.record("k", 1, CausalStamp(1, (("other", 3),)))
    endpoint = ReliableFanoutEndpoint(sim, net, "ep", remote)
    StampedFanoutLink(sim, source, net, "link", remote="ep", stamps=stamps)
    source.append(ChangeEvent("k", Mutation.put(1), 1))
    sim.run_for(1.0)
    assert endpoint.events_ingested == 1


# ----------------------------------------------------------------------
# pubsub edge frontend


class StaticPlacement:
    def __init__(self, frontend):
        self.frontend = frontend

    def frontend_for(self, client_name):
        return self.frontend


class OrderClient(EdgeClient):
    __slots__ = ("apply_order",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.apply_order = []

    def _apply(self, update):
        self.apply_order.append(update.key)
        super()._apply(update)


def test_pubsub_frontend_fifo_default_shows_inversion(sim):
    broker = Broker(sim)
    broker.create_topic("updates", num_partitions=2)
    frontend = PubsubEdgeFrontend(
        sim, "fe0", broker, "updates",
        config=EdgeFrontendConfig(session=SessionConfig(
            policy=SlowConsumerPolicy.DROP, max_queue=1000,
            initial_credits=64,
        )),
    )
    client = OrderClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run_for(0.1)
    _publish_inverted(sim, broker, topic="updates")
    sim.run_for(2.0)
    assert client.apply_order == ["ptr", "data"]


# ----------------------------------------------------------------------
# pubsub gate: GatedConsumer


def _gated(sim, broker, ack_timeout=30.0, hold=0.5, **config):
    order = []

    def handle(message):
        order.append(message.key)

    subscription = broker.subscribe(
        "cdc", "group",
        SubscriptionConfig(ack_timeout=ack_timeout, **config),
    )
    consumer = GatedConsumer(
        sim, "c0", handle, CausalBufferConfig(hold_deadline=hold)
    )
    subscription.add_member(consumer)
    return subscription, consumer, order


def test_gated_consumer_holds_pointer_until_its_data(sim):
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=2)
    subscription, consumer, order = _gated(sim, broker)
    _publish_inverted(sim, broker)
    sim.run_for(2.0)
    assert order == ["data", "ptr"]
    assert consumer.buffer.released_deps == 1
    assert consumer.buffer.released_deadline == 0
    assert subscription.acked == 2


def test_gated_consumer_crash_while_held_redelivers(sim):
    """The gate sits under the lease: a message the gate holds is
    unacked, so a crash loses nothing — the lease redelivers it and it
    applies after recovery, still behind its dep."""
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=2)
    subscription, consumer, order = _gated(sim, broker, ack_timeout=1.0)
    broker.publish(
        "cdc", "ptr",
        _payload(2, {"ref": "data"}, CausalStamp(2, (("data", 1),))),
    )
    sim.run_for(0.1)
    assert consumer.buffer.held_count == 1
    consumer.crash()
    assert consumer.buffer.held_count == 0  # the gate is consumer memory
    assert subscription.acked == 0
    assert subscription.inflight_count() == 1  # still leased
    sim.run_for(0.1)
    consumer.recover()
    broker.publish("cdc", "data", _payload(1, 7, CausalStamp(1, ())))
    sim.run_for(2.0)
    # the held deadline never fired into the recovered consumer: the
    # pointer came back by lease expiry, after its data
    assert order == ["data", "ptr"]
    assert subscription.redelivered == 1
    assert subscription.acked == 2
    assert consumer.buffer.released_deadline == 0


def test_gated_consumer_refuses_batches(sim):
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=1)
    subscription, consumer, order = _gated(sim, broker, max_delivery_batch=4)
    with pytest.raises(TypeError, match="one at a time"):
        consumer.deliver_batch([], ack=lambda: None, nack=lambda: None)
    # a batching subscription cannot slip a group past the gate
    broker.publish("cdc", "data", _payload(1, 7))
    with pytest.raises(TypeError, match="one at a time"):
        sim.run_for(1.0)
    assert order == []
