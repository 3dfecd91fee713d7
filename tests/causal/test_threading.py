"""Integration: the causal tier threaded through each pipeline stage.

The unit tests (test_stamp/test_buffer) pin the core; these tests pin
the *wiring* — CDC stamping and the relay link's in-band stamp
shipping, each with the off-by-default guarantee alongside the causal
behaviour — and the two places causal order is NOT threaded: the
replication appliers apply in arrival order and the pubsub edge
frontend refuses causal mode (order a pubsub feed at its subscription;
the watch frontend's gates are in tests/edge/test_causal_reconnect.py).
"""

import pytest

from repro._types import Mutation
from repro.causal import CausalStamp, CausalStamper, StampIndex
from repro.cdc.publisher import CdcPublisher
from repro.core.events import ChangeEvent
from repro.core.relay import ReliableFanoutEndpoint, ReliableFanoutLink
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, PubsubEdgeFrontend
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.pubsub.broker import Broker
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
    CdcPublisher(sim, store.history, broker, "cdc", causal_index=stamps)
    store.commit({"data": Mutation.put(1)})
    store.commit({"ptr": Mutation.put({"ref": "data"})})
    sim.run_for(1.0)
    log = broker.topic("cdc").partitions[0]
    messages = log.read_from(0, limit=10)
    assert [m.key for m in messages] == ["data", "ptr"]
    ptr_stamp = messages[1].payload["causal"]
    assert ptr_stamp == stamps.lookup("ptr", 2)
    assert ("data", 1) in ptr_stamp.deps


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
    local_index = StampIndex()
    ReliableFanoutEndpoint(sim, net, "ep", remote, causal_index=local_index)
    ReliableFanoutLink(
        sim, source, net, "link", remote="ep", causal_index=source_index
    )
    source.append(ChangeEvent("k", Mutation.put(1), 1))
    sim.run_for(1.0)
    # the stamp crossed the wire in-band and rebuilt on the far side
    assert local_index.lookup("k", 1) == stamp


def test_fanout_link_without_index_ships_nothing_extra(sim):
    net = Network(sim, NetworkConfig(base_latency=0.001))
    source = WatchSystem(sim, name="src")
    remote = WatchSystem(sim, name="edge")
    local_index = StampIndex()
    ReliableFanoutEndpoint(sim, net, "ep", remote, causal_index=local_index)
    ReliableFanoutLink(sim, source, net, "link", remote="ep")
    source.append(ChangeEvent("k", Mutation.put(1), 1))
    sim.run_for(1.0)
    assert local_index.lookup("k", 1) is None
    assert len(local_index) == 0


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


def _edge_config(mode):
    return EdgeFrontendConfig(
        session=SessionConfig(
            policy=SlowConsumerPolicy.DROP, max_queue=1000,
            initial_credits=64,
        ),
        delivery_mode=mode,
    )


def test_pubsub_frontend_fifo_default_shows_inversion(sim):
    broker = Broker(sim)
    broker.create_topic("updates", num_partitions=2)
    frontend = PubsubEdgeFrontend(
        sim, "fe0", broker, "updates", config=_edge_config("fifo")
    )
    client = OrderClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run_for(0.1)
    _publish_inverted(sim, broker, topic="updates")
    sim.run_for(2.0)
    assert client.apply_order == ["ptr", "data"]


def test_pubsub_frontend_rejects_causal_mode(sim):
    broker = Broker(sim)
    broker.create_topic("updates", num_partitions=2)
    with pytest.raises(ValueError, match="causal delivery is watch-only"):
        PubsubEdgeFrontend(
            sim, "fe0", broker, "updates", config=_edge_config("causal")
        )
