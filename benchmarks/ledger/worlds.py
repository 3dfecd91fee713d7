"""The four ledger workloads, built from the packages' public constructors.

Each world is single-use: construct it (that is ``setup_s``), advance
it to ``load_end`` (run) and on to ``horizon`` (drain) — their host wall
is the denominator of ``delivered_per_s`` — then :meth:`World.outcome`
(untimed verification).  Inputs come from ``random.Random(seed)`` owned by the
harness; the program only ever sees the generated keys, values and
schedules.  Load is generated *inside* the simulation, open loop in sim
time, so publish/commit cost is part of the timed section.

Sizes are constants here (see README.md for why each workload exists);
``scale`` multiplies them for the smoke test only.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro._types import KeyRange
from repro.cdc.publisher import CdcPublisher
from repro.core.bridge import DirectIngestBridge
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, WatchEdgeFrontend
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig, SlowConsumerPolicy, SnapshotDelivery
from repro.pubsub.broker import Broker, RemotePublisher
from repro.pubsub.consumer import Consumer
from repro.replication.appliers import PartitionSerialApplier
from repro.replication.target import ReplicaStore
from repro.resilience.channel import ChannelConfig
from repro.sim.kernel import Simulation, Timeout
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore, Mutation
from repro.transport import BatchConfig
from repro.workloads.generators import UniformKeys, WriteStream

#: producer shape shared by the broker and replication workloads
BURST = 16
BURST_INTERVAL = 0.001
#: sim-seconds allowed after the load ends; every pipeline here drains
#: in milliseconds, so anything still undelivered at the horizon is lost
DRAIN = 5.0

#: raw program counters every world reports (0 where the layer is absent)
COUNTER_KEYS = (
    "net_frames", "net_bytes", "net_payload_msgs",
    "channel_transmits", "channel_acked", "channel_retransmits",
    "pubsub_redeliveries",
    "edge_offered", "edge_coalesced", "edge_pump_runs", "edge_pump_visits",
    "edge_reconnects", "edge_snapshot_reconnects",
)


@dataclass
class Outcome:
    """What one repetition did, in sim terms only (repeats exactly)."""

    attempted: int
    delivered: int
    failed: int
    counters: Dict[str, int]
    latencies: List[float]

    def percentiles_ms(self, *quantiles: float) -> List[float]:
        ordered = sorted(self.latencies)
        last = len(ordered) - 1
        return [ordered[round(q * last)] * 1000.0 for q in quantiles]

    def digest(self) -> str:
        """sha-256 over the counters and the latency histogram."""
        histogram = sorted(Counter(self.latencies).items())
        text = repr((
            self.attempted, self.delivered, self.failed,
            sorted(self.counters.items()), histogram,
        ))
        return hashlib.sha256(text.encode()).hexdigest()


class World:
    """One built instance of a workload."""

    name = ""
    sim: Simulation
    load_end: float
    latencies: List[float]

    @property
    def horizon(self) -> float:
        return self.load_end + DRAIN

    def advance(self, until: float) -> None:
        """Drive the simulation up to sim-time ``until``."""
        self.sim.run(until=until)

    def outcome(self) -> Outcome:  # pragma: no cover - abstract
        raise NotImplementedError

    def _attach_tracer(self, tracer_cls) -> None:
        self.tracer = tracer_cls(self.sim) if tracer_cls is not None else None

    def _counters(self, **values: int) -> Dict[str, int]:
        counters = dict.fromkeys(COUNTER_KEYS, 0)
        counters.update(values)
        return counters


def _scaled(size: int, scale: float, floor: int) -> int:
    return max(floor, round(size * scale))


def _redeliveries(broker: Broker, topic: str) -> int:
    return sum(sub.redelivered for sub in broker.subscriptions(topic))


def _network_counters(metrics: MetricsRegistry) -> Dict[str, int]:
    snapshot = metrics.snapshot()

    def channel_sum(suffix: str) -> int:
        return int(sum(
            value for name, value in snapshot.items()
            if name.startswith("resilience.") and name.endswith(suffix)
        ))

    return dict(
        net_frames=int(snapshot.get("net.frames.sent", 0)),
        net_bytes=int(snapshot.get("net.bytes.sent", 0)),
        net_payload_msgs=int(snapshot.get("net.payload.msgs", 0)),
        channel_transmits=channel_sum(".transmits"),
        channel_acked=channel_sum(".acked"),
        channel_retransmits=channel_sum(".retransmits"),
    )


# ----------------------------------------------------------------------
# broker-fanout


class BrokerFanout(World):
    """In-process broker, no network: publish → 8 groups → handler."""

    name = "broker-fanout"
    PUBLISHES = 20_000
    PARTITIONS = 8
    GROUPS = 8
    CONSUMERS_PER_GROUP = 4
    KEYS = 512

    def __init__(self, seed: int, scale: float = 1.0, tracer_cls=None) -> None:
        rng = random.Random(seed)
        keys = [f"k{i:03d}" for i in range(self.KEYS)]
        self.publishes = _scaled(self.PUBLISHES, scale, BURST)
        self.inputs = [keys[rng.randrange(self.KEYS)] for _ in range(self.publishes)]
        sim = self.sim = Simulation(seed=seed)
        self._attach_tracer(tracer_cls)
        self.broker = Broker(sim, tracer=self.tracer)
        self.broker.create_topic("t", num_partitions=self.PARTITIONS)
        self.latencies = []
        #: what the producer last published per key: the "source store"
        self.last_published: Dict[str, int] = {}
        self.group_state: List[Dict[str, int]] = []
        self.consumers: List[Consumer] = []
        for g in range(self.GROUPS):
            group = self.broker.consumer_group("t", f"g{g}")
            state: Dict[str, int] = {}
            self.group_state.append(state)
            handler = self._handler(state)
            for c in range(self.CONSUMERS_PER_GROUP):
                consumer = Consumer(sim, f"g{g}c{c}", handler=handler)
                self.consumers.append(group.join(consumer))
        sim.spawn(self._producer(), name="producer")
        self.load_end = (self.publishes // BURST + 1) * BURST_INTERVAL

    def _handler(self, state: Dict[str, int]):
        clock = self.sim.clock
        record = self.latencies.append

        def handle(message) -> bool:
            value, published_at = message.payload
            record(clock.now() - published_at)
            state[message.key] = value
            return True

        return handle

    def _producer(self):
        publish = self.broker.publish
        now = self.sim.now
        last = self.last_published
        for n, key in enumerate(self.inputs):
            publish("t", key, (n, now()))
            last[key] = n
            if n % BURST == BURST - 1:
                yield Timeout(BURST_INTERVAL)

    def outcome(self) -> Outcome:
        attempted = self.publishes * self.GROUPS
        handled = sum(consumer.processed for consumer in self.consumers)
        stale = sum(
            1 for state in self.group_state
            for key, value in self.last_published.items()
            if state.get(key) != value
        )
        return Outcome(
            attempted=attempted,
            delivered=len(self.latencies),
            failed=abs(attempted - handled) + stale,
            counters=self._counters(
                pubsub_redeliveries=_redeliveries(self.broker, "t")
            ),
            latencies=self.latencies,
        )


# ----------------------------------------------------------------------
# repl-net-unbatched / repl-net-batched


class _TimedReplica(ReplicaStore):
    """ReplicaStore that samples commit → apply sim latency per record."""

    def __init__(self, clock, commit_times: Dict[int, float], sink: List[float]):
        super().__init__("replica")
        self._clock = clock
        self._commit_times = commit_times
        self._sink = sink

    def apply_versioned(self, key, mutation, version) -> bool:
        self._sink.append(self._clock.now() - self._commit_times[version])
        return super().apply_versioned(key, mutation, version)


class ReplNet(World):
    """Store → CDC → network → broker → applier → network → replica."""

    COMMITS = 0
    BATCHED = False
    TXN_SIZE = 4
    KEYS = 128
    PARTITIONS = 4

    def __init__(self, seed: int, scale: float = 1.0, tracer_cls=None) -> None:
        rng = random.Random(seed)
        self.keys = [f"k{i:03d}" for i in range(self.KEYS)]
        self.commits = _scaled(self.COMMITS, scale, BURST)
        self.inputs = [
            rng.sample(self.keys, self.TXN_SIZE) for _ in range(self.commits)
        ]
        sim = self.sim = Simulation(seed=seed)
        self._attach_tracer(tracer_cls)
        tracer = self.tracer
        self.metrics = MetricsRegistry()
        self.store = MVCCStore(clock=sim.now)
        if tracer is not None:
            tracer.observe_store(self.store)
        self.broker = Broker(sim, metrics=self.metrics, tracer=tracer)
        self.broker.create_topic("cdc", num_partitions=self.PARTITIONS)
        net = Network(
            sim, NetworkConfig(base_latency=0.001), metrics=self.metrics,
            tracer=tracer,
        )
        batched = self.BATCHED
        channel = ChannelConfig(
            batch=BatchConfig(max_batch=16, max_linger=0.001) if batched else None
        )
        self.broker.attach_network(net, endpoint="cdc-broker", config=channel)
        remote = RemotePublisher(
            sim, net, "cdc-pub", broker_endpoint="cdc-broker",
            config=channel, metrics=self.metrics,
        )
        CdcPublisher(
            sim, self.store.history, self.broker, "cdc",
            publish_latency=0.0005, publish_fn=remote.publish, tracer=tracer,
            group_commit=batched, publish_batch_fn=remote.publish_batch,
        )
        commit_times: Dict[int, float] = {}
        clock = sim.clock
        self.store.history.tail(
            lambda commit: commit_times.__setitem__(commit.version, clock.now())
        )
        self.latencies = []
        self.target = _TimedReplica(clock, commit_times, self.latencies)
        self.applier = PartitionSerialApplier(
            sim, self.broker, "cdc", self.target, service_time=0.0,
            network=net, delivery_batch=64 if batched else 1,
        )
        sim.spawn(self._writer(), name="writer")
        self.load_end = (self.commits // BURST + 1) * BURST_INTERVAL

    def _writer(self):
        commit = self.store.commit
        put = Mutation.put
        n = 0
        for index, keys in enumerate(self.inputs):
            commit({key: put(n + j) for j, key in enumerate(keys)})
            n += self.TXN_SIZE
            if index % BURST == BURST - 1:
                yield Timeout(BURST_INTERVAL)

    def outcome(self) -> Outcome:
        attempted = self.commits * self.TXN_SIZE
        stale = sum(
            1 for key in self.keys if self.target.get(key) != self.store.get(key)
        )
        return Outcome(
            attempted=attempted,
            delivered=len(self.latencies),
            failed=abs(attempted - self.target.applies) + stale,
            counters=self._counters(
                pubsub_redeliveries=_redeliveries(self.broker, "cdc"),
                **_network_counters(self.metrics),
            ),
            latencies=self.latencies,
        )


class ReplNetUnbatched(ReplNet):
    name = "repl-net-unbatched"
    COMMITS = 5_000


class ReplNetBatched(ReplNet):
    name = "repl-net-batched"
    COMMITS = 14_000
    BATCHED = True


# ----------------------------------------------------------------------
# watch-edge-storm


class _TimedClient(EdgeClient):
    """EdgeClient that samples commit → delivery sim latency."""

    __slots__ = ("_commit_times", "_sink")

    def __init__(self, *args, commit_times, sink, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._commit_times = commit_times
        self._sink = sink

    def on_delivery(self, session, item) -> None:
        if item.__class__ is not SnapshotDelivery:
            self._sink.append(
                self.sim.clock.now() - self._commit_times[item.version]
            )
        super().on_delivery(session, item)


class WatchEdgeStorm(World):
    """Store → watch system → 2 edge frontends → many clients, with a
    mid-run reconnect storm (E14's QUICK shape at one rung)."""

    name = "watch-edge-storm"
    SESSIONS = 12_000
    FRONTENDS = 2
    GROUPS = 16
    KEYS_PER_GROUP = 8
    UPDATE_RATE = 25.0
    DURATION = 8.0
    CONNECT_WINDOW = 2.0
    STORM_FRACTION = 0.2
    STORM_WINDOW = 1.0
    DOWNTIME_MEAN = 1.0

    def __init__(self, seed: int, scale: float = 1.0, tracer_cls=None) -> None:
        rng = random.Random(seed)
        sessions = _scaled(self.SESSIONS, scale, self.GROUPS)
        sim = self.sim = Simulation(seed=seed)
        self._attach_tracer(tracer_cls)
        tracer = self.tracer
        store = self.store = MVCCStore(clock=sim.now)
        if tracer is not None:
            tracer.observe_store(store)
        source = WatchSystem(sim, name="src-ws", tracer=tracer)
        DirectIngestBridge(
            sim, store.history, source, latency=0.002, progress_interval=0.25
        )

        def store_snapshot(key_range):
            version = store.last_version
            return version, dict(store.scan(key_range, version))

        config = EdgeFrontendConfig(
            session=SessionConfig(
                policy=SlowConsumerPolicy.COALESCE, max_queue=256,
                initial_credits=8, delivery_latency=0.001,
            ),
            catchup_threshold=100,
            drain_interval=0.001,
            trace_sample=64,
            feed_progress=False,
        )
        self.frontends = [
            WatchEdgeFrontend(
                sim, f"fe{i}", source, store_snapshot, config=config,
                tracer=tracer,
            )
            for i in range(self.FRONTENDS)
        ]
        placement = SessionPlacement(sim, self.frontends)
        commit_times: Dict[int, float] = {}
        clock = sim.clock
        store.history.tail(
            lambda commit: commit_times.__setitem__(commit.version, clock.now())
        )
        self.latencies = []
        self.clients: List[_TimedClient] = []
        for i in range(sessions):
            group = i % self.GROUPS
            client = _TimedClient(
                sim, f"{chr(ord('a') + (26 * i) // sessions)}{i:07d}", placement,
                key_range=KeyRange(f"g{group:03d}/", f"g{group:03d}0"),
                service_time=0.0, reconnect_delay=0.3,
                commit_times=commit_times, sink=self.latencies,
            )
            self.clients.append(client)
            sim.call_after(rng.uniform(0.0, self.CONNECT_WINDOW), client.connect)

        keys = [
            f"g{group:03d}/{k:03d}"
            for group in range(self.GROUPS)
            for k in range(self.KEYS_PER_GROUP)
        ]
        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=self.UPDATE_RATE
        )
        write_start = self.CONNECT_WINDOW + 0.5
        sim.call_at(write_start, writer.start)
        sim.call_at(write_start + self.DURATION, writer.stop)
        self.load_end = write_start + self.DURATION

        storm_at = write_start + self.DURATION / 2.0
        stormers = rng.sample(self.clients, round(sessions * self.STORM_FRACTION))
        for client in stormers:
            hit_at = storm_at + rng.uniform(0.0, self.STORM_WINDOW)
            downtime = min(
                rng.expovariate(1.0 / self.DOWNTIME_MEAN), 4 * self.DOWNTIME_MEAN
            )
            sim.call_at(hit_at, self._storm_hit(client, downtime))

    def _storm_hit(self, client: EdgeClient, downtime: float):
        sim = self.sim

        def back() -> None:
            client.auto_reconnect = True
            client.connect()

        def hit() -> None:
            if client.session is None:
                return
            client.auto_reconnect = False
            client.disconnect()
            sim.call_after(downtime, back)

        return hit

    def outcome(self) -> Outcome:
        totals = dict.fromkeys(
            ("offered", "delivered", "coalesced", "dropped", "returned", "queued"), 0
        )
        reconnects = 0
        stale = 0
        final: Dict[tuple, dict] = {}
        version = self.store.last_version
        for client in self.clients:
            client.stop()
            for key, value in client.finalize().items():
                totals[key] += value
            reconnects += client.connects - 1
            bounds = (client.key_range.low, client.key_range.high)
            expected = final.get(bounds)
            if expected is None:
                expected = final[bounds] = dict(
                    self.store.scan(client.key_range, version)
                )
            if client.state != expected:
                stale += 1
        residual = totals["offered"] - sum(
            value for key, value in totals.items() if key != "offered"
        )
        delivered = len(self.latencies)
        failed = (
            abs(residual) + totals["dropped"] + stale
            + abs(totals["delivered"] - delivered)
        )
        return Outcome(
            attempted=totals["offered"],
            delivered=delivered,
            failed=failed,
            counters=self._counters(
                edge_offered=totals["offered"],
                edge_coalesced=totals["coalesced"],
                edge_pump_runs=sum(fe.table.pump_runs for fe in self.frontends),
                edge_pump_visits=sum(fe.table.pump_visits for fe in self.frontends),
                edge_reconnects=reconnects,
                edge_snapshot_reconnects=sum(
                    fe.snapshots_served for fe in self.frontends
                ),
            ),
            latencies=self.latencies,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (BrokerFanout, ReplNetUnbatched, ReplNetBatched, WatchEdgeStorm)
}
