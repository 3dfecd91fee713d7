"""Differential byte accounting: the network sizes, it never encodes.

The hot path stores ``wire_size(frame)`` on each frame once and reads
that int from then on; nothing under ``src/repro`` builds a frame's
bytes.  Three checks keep that honest end to end:

1. over a lossy, retransmitting run the byte counters equal
   ``len(encode(frame))`` summed over every frame handed to
   ``Network.send`` — the stored size never drifts from the bytes it
   stands for, retransmits included;
2. the whole replication pipeline runs to completion with
   ``wire.encode`` booby-trapped;
3. binding counters on first touch adds no metric name to a lossless
   run's ``snapshot()`` — no ``net.dropped.*`` / ``retransmits`` /
   ``gaveup`` row appears just because the code path exists.
"""

from collections import Counter

import pytest

from repro.cdc.publisher import CdcPublisher
from repro.pubsub.broker import Broker, RemotePublisher
from repro.replication.appliers import PartitionSerialApplier
from repro.replication.target import ReplicaStore
from repro.resilience.channel import ChannelConfig, ReliableChannel, _DataFrame
from repro.resilience.retry import RetryPolicy
from repro.sim import wire
from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore, Mutation
from repro.transport import BatchConfig

FAST_RETRY = RetryPolicy.unbounded(base_delay=0.05, max_delay=0.5)


class _EncodingNetwork(Network):
    """Network that also materialises every frame it is handed, the way
    a real NIC would, and keeps its own byte ledger beside the counters."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.encoded_bytes = 0
        self.retransmitted_bytes = Counter()  # sender -> bytes
        self._transmitted = set()

    def send(self, src, dst, payload) -> bool:
        nbytes = len(wire.encode(payload))
        self.encoded_bytes += nbytes
        if type(payload) is _DataFrame and payload.needs_ack:
            key = (src, dst, payload.seq)
            if key in self._transmitted:
                self.retransmitted_bytes[src] += nbytes
            self._transmitted.add(key)
        return super().send(src, dst, payload)


@pytest.mark.parametrize(
    "batch", [None, BatchConfig(max_batch=4, max_linger=0.002)],
    ids=["unbatched", "batched"],
)
def test_byte_counters_equal_encoded_length_of_every_frame_sent(batch):
    sim = Simulation(seed=11)
    net = _EncodingNetwork(sim, NetworkConfig(loss_rate=0.2, jitter=0.001))
    config = ChannelConfig(retry=FAST_RETRY, batch=batch)
    received = []
    ReliableChannel(
        sim, net, "rx", handler=lambda src, p: received.append(p), config=config
    )
    tx = ReliableChannel(sim, net, "tx", config=config)
    payloads = [
        {"topic": "cdc", "key": f"k{i:03d}", "payload": {"value": "v" * i, "n": i}}
        for i in range(120)
    ]
    for i, payload in enumerate(payloads):
        sim.call_at(i * 0.001, lambda p=payload: tx.send("rx", p))
    sim.run()
    assert sorted(received, key=lambda p: p["key"]) == payloads

    snapshot = net.metrics.snapshot()
    assert snapshot["net.dropped.loss"] > 0  # the run really was lossy
    assert snapshot["resilience.tx.retransmits"] > 0
    assert snapshot["net.bytes.sent"] == net.encoded_bytes
    assert snapshot["net.bytes.sent"] == snapshot["net.bytes.delivered"] + sum(
        value for name, value in snapshot.items()
        if name.startswith("net.bytes.dropped.")
    )
    assert (
        snapshot["resilience.tx.retransmit_bytes"]
        == net.retransmitted_bytes["tx"]
        > 0
    )


def test_pipeline_runs_to_completion_without_encode(monkeypatch):
    def booby_trap(obj):
        raise AssertionError(f"wire.encode called on the hot path: {obj!r}")

    monkeypatch.setattr(wire, "encode", booby_trap)

    # CDC -> RemotePublisher -> broker -> networked applier -> replica
    sim = Simulation(seed=3)
    metrics = MetricsRegistry()
    store = MVCCStore(clock=sim.now)
    broker = Broker(sim, metrics=metrics)
    broker.create_topic("cdc", num_partitions=2)
    net = Network(sim, NetworkConfig(loss_rate=0.1), metrics=metrics)
    channel = ChannelConfig(retry=FAST_RETRY)
    broker.attach_network(net, endpoint="cdc-broker", config=channel)
    remote = RemotePublisher(
        sim, net, "cdc-pub", broker_endpoint="cdc-broker",
        config=channel, metrics=metrics,
    )
    CdcPublisher(
        sim, store.history, broker, "cdc",
        publish_latency=0.0005, publish_fn=remote.publish,
    )
    target = ReplicaStore("replica")
    PartitionSerialApplier(
        sim, broker, "cdc", target, service_time=0.0,
        network=net, resilience=channel,
    )
    keys = [f"k{i}" for i in range(8)]
    for n in range(40):
        sim.call_at(
            n * 0.002,
            lambda n=n: store.commit(
                {keys[n % 8]: Mutation.put(n), keys[(n + 3) % 8]: Mutation.put(-n)}
            ),
        )
    sim.run(until=10.0)  # the broker's housekeeping timers never drain
    assert target.applies > 0
    assert {key: target.get(key) for key in keys} == {
        key: store.get(key) for key in keys
    }
    assert metrics.snapshot()["net.bytes.sent"] > 0


def test_lossless_run_registers_only_the_metrics_it_touches():
    sim = Simulation(seed=5)
    net = Network(sim)
    received = []
    ReliableChannel(sim, net, "rx", handler=lambda src, p: received.append(p))
    tx = ReliableChannel(sim, net, "tx")
    for i in range(5):
        tx.send("rx", {"i": i})
    sim.run()
    assert len(received) == 5
    assert net.metrics.names() == [
        "net.bytes.delivered",
        "net.bytes.sent",
        "net.delivered",
        "net.frames.sent",
        "net.payload.msgs",
        "net.sent",
        "resilience.rx.received",
        "resilience.tx.acked",
        "resilience.tx.delivery_time",
        "resilience.tx.sent",
        "resilience.tx.transmits",
    ]
