"""E16 — causal ordering: FIFO vs causal delivery on both pipelines.

§2/§3 of the paper pin pubsub's ordering contract at *per-partition
FIFO*: two updates on different keys (different partitions, or merely
different network fates) may reach a consumer in either order, even
when one was written strictly after — and because of — the other.  The
canonical victim is the data/pointer pattern: write ``data:i``, then
write ``ptr:i`` referencing it; a subscriber that applies the pointer
first dereferences a value it does not have yet.

This experiment measures that violation and what the
:mod:`repro.causal` tier costs to eliminate it, on both pipelines:

- **pubsub** — CDC records cross a *lossy, unordered* publish wire to
  the broker (a dropped publish frame retransmits and lands late, so
  append order across keys diverges from commit order), then a
  consumer-group subscription delivers them.  Causal rows stamp the CDC
  payloads and gate the applier's ``deliver`` through one
  cross-partition buffer (:mod:`repro.causal.stage`).
- **watch** — a :class:`~repro.core.bridge.PartitionedIngestBridge`
  with per-range latency stagger feeds the watch system (the ``ptr:``
  range is the *fast* partition, so pointers systematically overtake
  their data), a reliable link ships the stream to an edge frontend,
  and clients audit their delivery order.  Causal rows stamp the link's
  event frames and gate each session feed through a per-session buffer
  floored at its catch-up point.

Causal rows ship :class:`~repro.causal.stamp.CausalStamp` metadata
in-band (pubsub payloads / watch event frames), so the overhead is
*real wire bytes* — read ``bytes_per_msg`` against the fifo baseline.
FIFO rows attach the stamper too, but only to an experiment-side index
the auditors read; nothing extra crosses the wire.

An **inversion** is counted at the consumption edge: an applied update
whose stamp lists an in-range dependency the consumer has not applied
yet.  The claim: fifo rows show a concrete, nonzero inversion count;
causal rows drive it to zero at a bounded latency cost, with every
residual forced release attributed (``released_deadline`` +
``causal.deadline`` trace hops carrying ``waiting_for``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._types import KEY_MAX, KEY_MIN, KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot, terminal_stats, wire_stats
from repro.causal import CausalBufferConfig, CausalStamper, StampIndex, stage
from repro.cdc.publisher import CdcPublisher
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, WatchEdgeFrontend
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig
from repro.core.bridge import PartitionedIngestBridge
from repro.core.watch_system import WatchSystem
from repro.obs import TraceIndex, Tracer
from repro.obs.report import trace_summary_row
from repro.obs.trace import hops
from repro.pubsub.broker import Broker, RemotePublisher
from repro.pubsub.consumer import Consumer
from repro.pubsub.subscription import SubscriptionConfig
from repro.resilience.channel import ChannelConfig
from repro.resilience.retry import RetryPolicy
from repro.sim.kernel import Simulation, Timeout
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore, Mutation


COLUMNS = [
    "config", "mode", "applied", "inversions", "held", "held_depth_max",
    "released_deadline", "e2e_p50_ms", "e2e_p99_ms", "bytes_per_msg",
    "meta_bytes_per_msg",
]

GATE_COLUMNS = [
    "config", "stamped", "held", "released_deps", "released_deadline",
    "hold_ms_mean", "hold_ms_max",
]


def _pair_writer(sim, store, num_chains, pair_rate, warmup, duration):
    """Commit ``data:i`` then ``ptr:i`` as two back-to-back transactions
    at ``pair_rate`` pairs/s — separate commits, so the pointer's causal
    stamp depends on the data write (same-transaction writes share a dep
    list that excludes each other).  No RNG draw: the commit stream is
    identical across every configuration."""
    interval = 1.0 / pair_rate

    def _run():
        yield Timeout(warmup)
        i = 0
        end = warmup + duration
        while sim.now() < end:
            chain = i % num_chains
            store.commit({f"data:{chain:03d}": Mutation.put({"n": i})})
            store.commit(
                {f"ptr:{chain:03d}": Mutation.put({"ref": f"data:{chain:03d}"})}
            )
            i += 1
            yield Timeout(interval)

    sim.spawn(_run(), name="pair-writer")


class _DepAuditor:
    """Order audit shared by both rails: an applied update whose stamp
    lists an in-range dep not applied yet is one inversion."""

    def __init__(self, stamps: StampIndex, in_range=None) -> None:
        self.stamps = stamps
        self.in_range = in_range
        self.applied: Dict[str, int] = {}
        self.inversions = 0

    def observe(self, key: str, version: Optional[int]) -> None:
        stamp = self.stamps.lookup(key, version)
        if stamp is not None:
            for dep_key, dep_version in stamp.deps:
                if self.in_range is not None and not self.in_range(dep_key):
                    continue
                if self.applied.get(dep_key, 0) < dep_version:
                    self.inversions += 1
                    break
        if version is not None and self.applied.get(key, 0) < version:
            self.applied[key] = version


class _AuditClient(EdgeClient):
    """Edge client that audits cross-key order as it applies updates."""

    __slots__ = ("auditor",)

    def __init__(self, sim, name, placement, stamps, **kwargs) -> None:
        super().__init__(sim, name, placement, **kwargs)
        self.auditor = _DepAuditor(stamps, in_range=self.key_range.contains)

    def _apply(self, update) -> None:
        self.auditor.observe(update.key, update.version)
        super()._apply(update)


def run(
    pipelines=("pubsub", "watch"),
    modes=("fifo", "causal"),
    num_chains: int = 12,
    pair_rate: float = 40.0,
    warmup: float = 0.5,
    duration: float = 10.0,
    drain: float = 8.0,
    causal_hold: float = 1.0,
    loss_rate: float = 0.08,
    base_latency: float = 0.005,
    net_jitter: float = 0.002,
    retry_delay: float = 0.06,
    stagger: float = 0.025,
    num_clients: int = 3,
    seed: int = 53,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E16 causal ordering: FIFO vs causal delivery, both "
                   "pipelines",
        claim="per-partition FIFO lets causally-later updates (ptr "
              "written after data) reach consumers first — a nonzero, "
              "reproducible inversion count on both pipelines; the "
              "causal tier drives inversions to zero by holding the "
              "pointer until its dep is delivered, at a bounded latency "
              "cost and a measurable in-band metadata cost (real wire "
              "bytes per message vs the fifo baseline)",
    )
    table = result.new_table("fifo vs causal", COLUMNS)
    gate_table = result.new_table(
        "causal gate (TraceIndex.causal_summary)", GATE_COLUMNS
    )
    retry = RetryPolicy.unbounded(base_delay=retry_delay, max_delay=0.5)

    for system in pipelines:
        for mode in modes:
            causal = mode == "causal"
            sim = Simulation(seed=seed)
            store = MVCCStore(clock=sim.now)
            tracer = Tracer(sim)
            tracer.observe_store(store)
            # the stamper always runs (the fifo auditor needs the dep
            # index too); only causal rows build the causal stage, so
            # only causal rows ship stamps on the wire
            stamps = StampIndex()
            stamper = CausalStamper(
                index=stamps, tracer=tracer if causal else None,
            )
            stamper.observe_store(store)
            net = Network(sim, NetworkConfig(
                base_latency=base_latency, jitter=net_jitter,
                loss_rate=loss_rate,
            ), tracer=tracer)

            gate = CausalBufferConfig(hold_deadline=causal_hold)
            buffers = []
            if system == "pubsub":
                # race vehicle: lossy UNORDERED publish wire — a dropped
                # data publish retransmits while the ptr publish sails
                # through, so the broker appends ptr first
                wire = ChannelConfig(retry=retry, ordered=False)
                broker = Broker(sim, tracer=tracer)
                broker.create_topic("cdc", num_partitions=4)
                broker.attach_network(net, config=wire)
                producer = RemotePublisher(
                    sim, net, "cdc-producer", config=wire, tracer=tracer
                )
                publish = producer.publish
                if causal:
                    publish = stage.stamped_publish(publish, stamps)
                CdcPublisher(
                    sim, store.history, None, "cdc",
                    publish_fn=publish, tracer=tracer,
                )
                subscription = broker.subscribe(
                    "cdc", "applier-group",
                    SubscriptionConfig(delivery_latency=0.001),
                )
                auditor = _DepAuditor(stamps)

                def handle(message, _auditor=auditor, _tracer=tracer):
                    version = message.payload.get("version")
                    _auditor.observe(message.key, version)
                    _tracer.record(
                        hops.CACHE_APPLY, "applier",
                        key=message.key, version=version,
                    )
                    return True

                if causal:
                    consumer = stage.GatedConsumer(
                        sim, "applier-0", handle, gate, tracer=tracer
                    )
                    buffers.append(consumer.buffer)
                else:
                    consumer = Consumer(sim, "applier-0", handle)
                subscription.add_member(consumer)
                auditors = [auditor]
                terminal = hops.CACHE_APPLY
            else:
                # race vehicle: the ptr: range rides the FAST ingest
                # partition (idx 0), data: the slow one — pointers
                # systematically overtake their data upstream of the
                # (ordered) edge link
                source = WatchSystem(sim, name="src-ws", tracer=tracer)
                PartitionedIngestBridge(
                    sim, store.history, source,
                    ranges=[
                        KeyRange("m", KEY_MAX),    # ptr:* — fast
                        KeyRange(KEY_MIN, "m"),    # data:* — slow
                    ],
                    base_latency=0.002, latency_stagger=stagger,
                    progress_interval=0.25,
                )

                # supersession is a reorder (see SessionConfig.coalesce),
                # so causal sessions queue every update
                config = EdgeFrontendConfig(session=SessionConfig(
                    max_queue=100_000, initial_credits=64,
                    delivery_latency=0.001, coalesce=not causal,
                ))
                channel = ChannelConfig(retry=retry, ordered=True)
                if causal:
                    # a stamped relay hop in front of the frontend's ingest
                    ingest = WatchSystem(sim, name="fe0-ingest", tracer=tracer)
                    endpoint = stage.StampedFanoutEndpoint(
                        sim, net, "fe0-ep", ingest, config=channel, tracer=tracer
                    )
                    stage.StampedFanoutLink(
                        sim, source, net, "fe0-uplink", "fe0-ep",
                        config=channel, tracer=tracer, stamps=stamps,
                    )
                    frontend = stage.GatedWatchFrontend(
                        sim, "fe0", ingest, store_snapshot(store),
                        config=config, tracer=tracer,
                        stamps=endpoint.stamps, gate=gate,
                    )
                    buffers = frontend.buffers
                else:
                    frontend = WatchEdgeFrontend(
                        sim, "fe0", source, store_snapshot(store), net=net,
                        channel_config=channel, config=config, tracer=tracer,
                    )
                placement = SessionPlacement(sim, [frontend])
                clients = [
                    _AuditClient(sim, f"client-{i}", placement, stamps)
                    for i in range(num_clients)
                ]
                for client in clients:
                    client.connect()
                auditors = [client.auditor for client in clients]
                terminal = hops.EDGE_DELIVER

            _pair_writer(sim, store, num_chains, pair_rate, warmup, duration)
            sim.run(until=warmup + duration + drain)

            applied, _ = terminal_stats(tracer, terminal)
            inversions = sum(a.inversions for a in auditors)
            index = TraceIndex(tracer.log)
            summary = trace_summary_row(index)
            table.add(
                config=system,
                mode=mode,
                applied=applied,
                inversions=inversions,
                held=sum(b.held_total for b in buffers),
                held_depth_max=max(
                    (b.held_max_depth for b in buffers), default=0
                ),
                released_deadline=sum(b.released_deadline for b in buffers),
                e2e_p50_ms=summary["e2e_p50_ms"],
                e2e_p99_ms=summary["e2e_p99_ms"],
                bytes_per_msg=wire_stats(net)["bytes_per_msg"],
                meta_bytes_per_msg=(
                    round(stamper.meta_bytes / stamper.stamped, 1)
                    if causal and stamper.stamped else 0.0
                ),
            )
            if causal:
                gate = index.causal_summary()
                gate_table.add(
                    config=system,
                    stamped=gate["stamped"],
                    held=gate["held"],
                    released_deps=gate["released_deps"],
                    released_deadline=gate["released_deadline"],
                    hold_ms_mean=gate["hold_ms_mean"],
                    hold_ms_max=gate["hold_ms_max"],
                )

    result.notes.append(
        "inversions are audited at the consumption edge: an applied "
        "update whose causal stamp lists an in-range dep the consumer "
        "has not applied yet.  fifo rows use the same stamps but only "
        "experiment-side (the auditor's index) — their wire bytes are "
        "the unstamped baseline, so bytes_per_msg(causal) - "
        "bytes_per_msg(fifo) is the real in-band metadata cost "
        "(meta_bytes_per_msg is the encoded stamp size for "
        "cross-checking).  held/released_deadline come from the live "
        "CausalBuffers; the gate table is recomputed independently from "
        "causal.* trace hops via TraceIndex.causal_summary, with every "
        "deadline release attributed to the dep it waited for.  watch "
        "causal rows can apply MORE than fifo rows: per-key supersession "
        "is itself a reorder (the newer value inherits the superseded "
        "update's queue position), so causal sessions disable coalescing "
        "and deliver the full sequence."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_chains=8,
    pair_rate=30.0,
    duration=4.0,
    drain=6.0,
    num_clients=2,
)


def check(result: ExperimentResult, params: dict) -> None:
    """FIFO shows the cross-key violation; causal eliminates it
    without losing a delivery."""
    table = result.table("fifo vs causal")
    assert table.columns == COLUMNS, table.columns
    assert len(table.rows) == len(params["pipelines"]) * len(params["modes"])
    for system in params["pipelines"]:
        rows = [r for r in table.rows if r["config"] == system]
        fifo = next(r for r in rows if r["mode"] == "fifo")
        causal = next(r for r in rows if r["mode"] == "causal")
        # causal can apply more: causal sessions disable per-key
        # supersession
        assert fifo["inversions"] > 0, system
        assert causal["inversions"] == 0, system
        assert causal["applied"] >= fifo["applied"] > 0, system
        assert causal["held"] > 0, system
        # the in-band stamps are real wire bytes
        assert causal["bytes_per_msg"] > fifo["bytes_per_msg"], system
        assert causal["meta_bytes_per_msg"] > 0, system
    # the trace-recomputed gate table agrees with the live buffers
    gate = result.table("causal gate (TraceIndex.causal_summary)")
    for row in gate.rows:
        causal = next(
            r for r in table.rows
            if r["config"] == row["config"] and r["mode"] == "causal"
        )
        assert row["held"] == causal["held"], row["config"]
        assert row["released_deadline"] == causal["released_deadline"]
