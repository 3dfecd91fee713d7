"""Shared worlds for the networked experiments.

:func:`cache_fleet` is the cache fleet of E10, E12 and E15 (one cell of
the E12/E15 sweeps is :func:`batching_cell`); :func:`edge_source` is the
source tier the edge experiments (E11, E13, E14, E17) attach frontends
to, and the rest is the session churn and accounting they share.
:func:`store_snapshot` is the snapshot function every watch cache and
frontend over an ``MVCCStore`` takes.

Construction order is output: each builder draws kernel seqs, sim RNG
values and ``store.history`` subscriptions in the order the experiments
drew them by hand, so tables and trace exports are unchanged by moving
onto a builder.  What only one caller needs (store prefill, fault
schedules, frontends) stays with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

from repro._types import KeyRange
from repro.cache.invalidation import (
    FreeInvalidationPipeline,
    InvalidationMode,
    PubsubCacheNode,
)
from repro.cache.node import CacheNodeConfig
from repro.cache.watch_cache import WatchCacheNode
from repro.core.bridge import DirectIngestBridge
from repro.core.linked_cache import LinkedCacheConfig
from repro.core.relay import ReliableFanoutEndpoint, ReliableFanoutLink
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.session import SnapshotDelivery
from repro.obs import TraceIndex, Tracer
from repro.obs.report import trace_summary_row
from repro.obs.trace import hops
from repro.pubsub.broker import Broker, BrokerConfig
from repro.pubsub.log import RetentionPolicy
from repro.resilience.channel import ChannelConfig
from repro.resilience.retry import RetryPolicy
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation, Timeout
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore, Mutation
from repro.transport import BatchConfig


#: Unbounded retransmits for the batching sweeps (E12, E15): a give-up
#: on the reliable rows would conflate loss with the batching lever.
_SWEEP_RETRY = RetryPolicy.unbounded(base_delay=0.05, max_delay=0.5)


def store_snapshot(store: MVCCStore):
    """``key_range -> (version, {key: value})`` at ``store``'s latest
    version: the snapshot function watch caches and frontends take."""

    def snapshot(key_range):
        version = store.last_version
        return version, dict(store.scan(key_range, version))

    return snapshot


@dataclass
class CacheFleet:
    """Handles into a built :func:`cache_fleet`."""

    sharder: AutoSharder
    net: Network
    nodes: list
    registries: list  # where the resilience.* counters land
    terminal: str  # the hop a cache records when it applies an update
    outage: Tuple[object, str]  # (failable component, name) to crash
    partition: Tuple[str, str]  # the cross-network hop's endpoints
    lost_updates: Callable[[], int]  # dropped and never repaired


def cache_fleet(
    sim: Simulation,
    store: MVCCStore,
    tracer,
    system: str,
    num_nodes: int,
    net_config: NetworkConfig,
    channel: ChannelConfig,
    batch: int = 1,
    dispatch_cost: float = 0.0,
    record_service: float = 0.0005,
) -> CacheFleet:
    """``num_nodes`` cache nodes fed from the prefilled ``store`` across
    a network whose cross-network hop runs over ``channel``.

    The sharder's assignment is static, so any divergence is the
    transport's.  ``pubsub``: CDC → broker → free-consumer invalidation
    fan-out (every node sees the whole feed).  With ``batch > 1`` the
    CDC group-commits, deliveries group ``batch`` records and the
    consumer pays ``dispatch_cost`` per group; unbatched it pays it per
    record on top of ``record_service``.  ``watch``: ingest bridge →
    ``src-ws`` → reliable fan-out link → ``edge-ws`` → watch caches.
    """
    tracer.observe_store(store)
    sharder = AutoSharder(
        sim, [f"node-{i}" for i in range(num_nodes)],
        AutoSharderConfig(notify_latency=0.01, notify_jitter=0.01),
        auto_rebalance=False,
    )
    net = Network(sim, net_config, tracer=tracer)
    registries = [net.metrics]

    if system == "pubsub":
        broker = Broker(sim, tracer=tracer)
        registries.append(broker.metrics)
        nodes = [
            PubsubCacheNode(
                sim, f"node-{i}", store, InvalidationMode.NAIVE,
                config=CacheNodeConfig(fetch_latency=0.01), tracer=tracer,
            )
            for i in range(num_nodes)
        ]
        batched = batch > 1
        remote = FreeInvalidationPipeline(
            sim, store, broker, sharder, nodes,
            network=net, resilience=channel, tracer=tracer,
            delivery_batch=batch,
            batch_overhead=dispatch_cost if batched else 0.0,
            group_commit=batched,
            service_time=record_service + (0.0 if batched else dispatch_cost),
        ).remote_publisher
        received = broker.metrics.counter(
            "resilience.invalidations-broker.received"
        )
        return CacheFleet(
            sharder, net, nodes, registries, hops.CACHE_APPLY,
            outage=(remote, "cdc-publisher"),
            partition=("invalidations-cdc", "invalidations-broker"),
            lost_updates=lambda: remote.published - received.value,
        )
    if system == "watch":
        ws_local = WatchSystem(sim, name="src-ws", tracer=tracer)
        DirectIngestBridge(sim, store.history, ws_local, progress_interval=0.25)
        ws_remote = WatchSystem(sim, name="edge-ws", tracer=tracer)
        endpoint = ReliableFanoutEndpoint(
            sim, net, "fanout-endpoint", ws_remote, config=channel,
            tracer=tracer,
        )
        link = ReliableFanoutLink(
            sim, ws_local, net, "fanout-link", remote="fanout-endpoint",
            config=channel, tracer=tracer,
        )
        nodes = [
            WatchCacheNode(
                sim, f"node-{i}", store, ws_remote,
                cache_config=LinkedCacheConfig(snapshot_latency=0.02),
                tracer=tracer,
            )
            for i in range(num_nodes)
        ]
        for node in nodes:
            sharder.subscribe(node.on_assignment)
        return CacheFleet(
            sharder, net, nodes, registries, hops.WATCH_APPLY,
            outage=(link, "fanout-link"),
            partition=("fanout-link", "fanout-endpoint"),
            lost_updates=lambda: link.events_shipped - endpoint.events_ingested,
        )
    raise ValueError(f"unknown system {system!r}")


def metric_sum(registries, suffix: str) -> int:
    """Sum of every ``resilience.*<suffix>`` counter across registries."""
    return sum(
        int(value)
        for registry in registries
        for name, value in registry.snapshot().items()
        if name.startswith("resilience.") and name.endswith(suffix)
    )


def wire_stats(net: Network) -> dict:
    """Frames, payload messages and encoded bytes on the wire, with the
    per-frame and per-message ratios (None when nothing crossed)."""
    counter = net.metrics.counter
    frames = counter("net.frames.sent").value
    msgs = counter("net.payload.msgs").value
    sent = counter("net.bytes.sent").value
    return dict(
        frames=frames, wire_msgs=msgs, bytes_sent=sent,
        bytes_delivered=counter("net.bytes.delivered").value,
        bytes_dropped=int(sum(
            value for name, value in net.metrics.snapshot().items()
            if name.startswith("net.bytes.dropped.")
        )),
        msgs_per_frame=round(msgs / frames, 2) if frames else None,
        bytes_per_frame=round(sent / frames, 1) if frames else None,
        bytes_per_msg=round(sent / msgs, 1) if msgs else None,
    )


def _txn_writer(sim, store, keys, txn_size, rate, duration, burst) -> None:
    """Commit ``txn_size``-key transactions at ``rate`` (average) until
    ``duration``, in back-to-back bursts of ``burst`` commits — the
    arrival pattern that lets frames actually fill.  Rotating key
    windows, no RNG draw: the record stream is identical across every
    configuration."""

    def _run():
        n = 0
        idx = 0
        while sim.now() < duration:
            for _ in range(burst):
                store.commit({
                    keys[(idx + j) % len(keys)]: Mutation.put({"v": n, "j": j})
                    for j in range(txn_size)
                })
                idx = (idx + txn_size) % len(keys)
                n += 1
            yield Timeout(burst / rate)

    sim.spawn(_run(), name="txn-writer")


def batching_cell(
    sim: Simulation, name: str, system: str, keys, fanout: int, batch: int,
    linger_ms: float, reliable: bool, commit_rate: float, *, txn_size,
    burst, duration, drain, loss_rate, base_latency, net_jitter,
    dispatch_cost, record_service,
) -> dict:
    """One cell of the batching sweeps (E12, E15): a ``fanout``-node
    :func:`cache_fleet` whose cross-network hop frames ``batch`` records
    per ``linger_ms`` window, fed ``txn_size``-key transactions at
    ``commit_rate`` and drained.  Returns the cell's measurements: the
    terminal hop's ``applied`` and ``throughput_rps``, ``retransmits``,
    :func:`trace_summary_row` and :func:`wire_stats`."""
    store = MVCCStore(clock=sim.now)
    for i, key in enumerate(keys):
        store.put(key, {"v": -1, "j": i})
    tracer = Tracer(sim, name=name)
    fleet = cache_fleet(
        sim, store, tracer, system, fanout,
        NetworkConfig(
            base_latency=base_latency, jitter=net_jitter, loss_rate=loss_rate,
        ),
        ChannelConfig(
            reliable=reliable,
            retry=_SWEEP_RETRY if reliable else None,
            ordered=reliable and system == "watch",
            batch=(
                BatchConfig(max_batch=batch, max_linger=linger_ms / 1000.0)
                if batch > 1 else None
            ),
        ),
        batch=batch, dispatch_cost=dispatch_cost,
        record_service=record_service,
    )
    _txn_writer(sim, store, keys, txn_size, commit_rate, duration, burst)
    sim.run(until=duration + drain)

    applied, span = terminal_stats(tracer, fleet.terminal)
    return dict(
        applied=applied,
        throughput_rps=round(applied / span, 1) if span else None,
        retransmits=metric_sum(fleet.registries, ".retransmits"),
        **trace_summary_row(TraceIndex(tracer.log)),
        **wire_stats(fleet.net),
    )


def terminal_stats(tracer, hop) -> Tuple[int, Optional[float]]:
    """(count, active span seconds) of a hop's trace events."""
    times = [event.t for event in tracer.log if event.hop == hop]
    return len(times), times[-1] - times[0] if len(times) > 1 else None


@dataclass
class EdgeSource:
    """What edge frontends attach to: ``watch`` + ``snapshot`` (and the
    closable ``bridge`` feeding it), or ``broker``'s ``updates`` topic."""

    watch: Optional[WatchSystem] = None
    snapshot: Optional[Callable] = None
    bridge: Optional[DirectIngestBridge] = None
    broker: Optional[Broker] = None


def edge_source(
    sim: Simulation,
    store: MVCCStore,
    tracer,
    system: str,
    broker_config: BrokerConfig = BrokerConfig(),
    retention: RetentionPolicy = RetentionPolicy(),
) -> EdgeSource:
    """``watch``: ``src-ws`` fed from ``store`` by a direct ingest
    bridge.  ``pubsub``: every committed write published to the
    4-partition ``updates`` topic of a broker."""
    if system == "watch":
        watch = WatchSystem(sim, name="src-ws", tracer=tracer)
        bridge = DirectIngestBridge(
            sim, store.history, watch, latency=0.002, progress_interval=0.25,
        )
        return EdgeSource(watch, store_snapshot(store), bridge)
    if system == "pubsub":
        broker = Broker(sim, broker_config, tracer=tracer)
        broker.create_topic("updates", num_partitions=4, retention=retention)

        def publish_commit(commit):
            for key, mutation in commit.writes:
                broker.publish("updates", key, {
                    "version": commit.version, "value": mutation.value,
                })

        store.history.tail(publish_commit)
        return EdgeSource(broker=broker)
    raise ValueError(f"unknown system {system!r}")


def group_range(prefix: str) -> KeyRange:
    """Exactly the keys ``{prefix}/…`` of one session group: '/' sorts
    just below '0'."""
    return KeyRange(f"{prefix}/", f"{prefix}0")


def group_keys(prefixes, keys_per_group: int) -> list:
    """``keys_per_group`` keys ``{prefix}/KKK`` per group, group-major."""
    return [
        f"{prefix}/{k:03d}" for prefix in prefixes
        for k in range(keys_per_group)
    ]


def commit_times(sim: Simulation, store: MVCCStore) -> dict:
    """``{version: sim time}``, filled as ``store`` commits."""
    times: dict = {}
    store.history.tail(
        lambda commit: times.__setitem__(commit.version, sim.clock._now)
    )
    return times


class LatencyClient(EdgeClient):
    """EdgeClient that hands ``sink`` its own delivery latencies.

    Measured client-side against :func:`commit_times` — no tracer, so
    it covers every sampled client while tracing stays sampled
    separately.  Unsampled clients (``sink`` None) skip it entirely.
    """

    # E14's bytes_per_sess column includes sys.getsizeof(client): the
    # slot count is part of its output
    __slots__ = ("commit_times", "sink")

    def __init__(self, *args, commit_times=None, sink=None, **kw):
        super().__init__(*args, **kw)
        self.commit_times = commit_times
        self.sink = sink

    def on_delivery(self, session, item) -> None:
        sink = self.sink
        if sink is not None and item.__class__ is not SnapshotDelivery:
            t0 = self.commit_times.get(item.version)
            if t0 is not None:
                sink(self.sim.clock._now - t0)
        super().on_delivery(session, item)


def storm_split(sim: Simulation, storm_at: float, calm, storm) -> Callable:
    """A :class:`LatencyClient` sink handing each sample to ``calm``
    before ``storm_at`` and to ``storm`` from then on."""

    def sink(latency):
        (calm if sim.clock._now < storm_at else storm)(latency)

    return sink


def stagger_connects(sim: Simulation, clients: list, window: float) -> list:
    """Connect each of ``clients``, in order, at a seeded instant inside
    ``[0, window)``."""
    for client in clients:
        sim.call_after(sim.rng.uniform(0.0, window), client.connect)
    return clients


def reconnect_storm(
    sim: Simulation, clients, fraction: float, at: float, window: float,
    downtime_mean: float,
) -> SimpleNamespace:
    """A seeded ``fraction`` of ``clients`` drops inside ``[at, at +
    window)`` and stays away for an exponential holdoff (capped at 4x
    ``downtime_mean``) before reconnecting.  Returns the sessions it
    actually closed (``disconnects``, counted as they happen) and the
    scheduled ``reconnect_times``."""
    storm = SimpleNamespace(disconnects=0, reconnect_times=[])
    for client in sim.rng.sample(clients, round(len(clients) * fraction)):
        hit_at = at + sim.rng.uniform(0.0, window)
        downtime = min(
            sim.rng.expovariate(1.0 / downtime_mean), 4 * downtime_mean
        )
        storm.reconnect_times.append(hit_at + downtime)

        def hit(client=client, downtime=downtime):
            if client.session is None:
                return  # already between sessions (e.g. mid-cycle)
            storm.disconnects += 1
            client.auto_reconnect = False
            client.disconnect()

            def back():
                client.auto_reconnect = True
                client.connect()

            sim.call_after(downtime, back)

        sim.call_at(hit_at, hit)
    return storm


def fold_client_totals(clients) -> Tuple[dict, List[int]]:
    """Stop every client and sum their finalized delivery totals; also
    every reconnect's staleness (versions or messages behind), in
    client order."""
    totals = dict.fromkeys(
        ("offered", "delivered", "coalesced", "dropped", "returned", "queued"),
        0,
    )
    restale: List[int] = []
    for client in clients:
        client.stop()
        client_totals = client.finalize()
        for key in totals:
            totals[key] += client_totals[key]
        restale.extend(client.staleness_at_connect[1:])
    return totals, restale


def attributed_pct(totals: dict) -> float:
    """The conservation check: the share of offered updates landing in
    exactly one outcome bucket (100.0 when all are attributed)."""
    if not totals["offered"]:
        return 100.0
    accounted = sum(v for k, v in totals.items() if k != "offered")
    return round(100.0 * accounted / totals["offered"], 1)
