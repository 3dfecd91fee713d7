"""E12 — batched transport: flush window × batch size × fan-out sweep.

Both delivery pipelines run the same multi-key transaction workload
over a lossy network, once with every batching lever off (the
per-message baseline every prior experiment used) and then across a
sweep of the levers the transport layer exposes:

- **pubsub** — store → CDC group-commit (one wire frame per
  transaction) → :class:`~repro.pubsub.broker.RemotePublisher` batch
  publish → broker → free-consumer invalidation fan-out with
  ``max_delivery_batch`` grouped deliveries and group-applied handler
  invocations.  The consumer model charges a fixed *dispatch cost* per
  handler invocation on top of the per-record service time, so the
  unbatched row saturates at high commit rates and the batched rows
  amortize the dispatch cost across the group — the throughput side of
  the crossover.
- **watch** — store → ingest bridge → watch relay whose
  :class:`~repro.resilience.channel.ReliableChannel` carries
  :class:`~repro.transport.BatchConfig` frames (size + linger flush
  policy, cumulative per-frame acks, batch retransmit) to fan-out
  cache nodes.  Here batching buys wire efficiency — frames,
  retransmits, and ack traffic shrink — and the linger window is pure
  added latency: the latency side of the crossover.

The sweep holds a base point (``batch=16, linger=5ms, fanout=3``) and
varies one axis at a time, plus one fire-and-forget row per pipeline
at the base point: a dropped *frame* there is N records gone at once,
and the trace layer must still attribute every one of them
(``wire_lost == lost_attributed`` — the per-frame ``n_events`` spans
and the shared frame seq on each record's send hop make a single
``net.drop`` event account for the whole group).

Everything is driven by the simulation clock and seeded RNG, so the
output table is byte-deterministic for a given seed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.runner import ExperimentResult, signature_defaults
from repro.cache.invalidation import (
    FreeInvalidationPipeline,
    InvalidationMode,
    PubsubCacheNode,
)
from repro.cache.node import CacheNodeConfig
from repro.cache.watch_cache import WatchCacheNode
from repro.core.bridge import DirectIngestBridge
from repro.core.relay import ReliableFanoutEndpoint, ReliableFanoutLink
from repro.core.linked_cache import LinkedCacheConfig
from repro.core.watch_system import WatchSystem
from repro.obs import TraceIndex, Tracer
from repro.obs.report import trace_summary_row
from repro.obs.trace import hops
from repro.pubsub.broker import Broker
from repro.resilience.channel import ChannelConfig
from repro.resilience.retry import RetryPolicy
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation, Timeout
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore, Mutation
from repro.transport import BatchConfig
from repro.workloads.generators import key_universe


#: Unbounded retransmits: the sweep measures batching cost, and a
#: give-up on the reliable rows would conflate loss with the lever.
_RETRY = RetryPolicy.unbounded(base_delay=0.05, max_delay=0.5)


def _sweep(batch_sizes, lingers_ms, fanouts, base_batch, base_linger_ms,
           base_fanout) -> list:
    """(batch, linger_ms, fanout, reliable) combos: one axis at a time."""
    combos = [(b, base_linger_ms, base_fanout, True) for b in batch_sizes]
    combos += [
        (base_batch, linger, base_fanout, True)
        for linger in lingers_ms if linger != base_linger_ms
    ]
    combos += [
        (base_batch, base_linger_ms, fanout, True)
        for fanout in fanouts if fanout != base_fanout
    ]
    # fire-and-forget at the base point: lost frames must attribute
    combos.append((base_batch, base_linger_ms, base_fanout, False))
    return combos


def _txn_writer(sim, store, keys, txn_size, rate, duration, burst):
    """Commit ``txn_size``-key transactions at ``rate`` (average) until
    ``duration``, in back-to-back bursts of ``burst`` commits — the
    arrival pattern that lets frames actually fill, so the batch-size
    axis has something to bind on.  Rotating key windows, no RNG draw:
    the record stream is identical across every configuration."""
    interval = burst / rate
    state = {"commits": 0}

    def _run():
        n = 0
        idx = 0
        while sim.now() < duration:
            for _ in range(burst):
                writes = {
                    keys[(idx + j) % len(keys)]: Mutation.put({"v": n, "j": j})
                    for j in range(txn_size)
                }
                idx = (idx + txn_size) % len(keys)
                store.commit(writes)
                state["commits"] += 1
                n += 1
            yield Timeout(interval)

    sim.spawn(_run(), name="txn-writer")
    return state


def _terminal_stats(tracer, hop) -> Tuple[int, Optional[float]]:
    """(count, active span seconds) of a terminal hop's events."""
    count, first, last = 0, None, None
    for event in tracer.log:
        if event.hop != hop:
            continue
        count += 1
        if first is None:
            first = event.t
        last = event.t
    span = (last - first) if count > 1 else None
    return count, span


def _metric_sum(registries, suffix: str) -> int:
    total = 0
    for registry in registries:
        for name, value in registry.snapshot().items():
            if name.startswith("resilience.") and name.endswith(suffix):
                total += int(value)
    return total


def run(
    pipelines=("pubsub", "watch"),
    batch_sizes=(1, 4, 16, 64),
    lingers_ms=(1.0, 5.0, 20.0),
    fanouts=(1, 3, 8),
    base_batch: int = 16,
    base_linger_ms: float = 5.0,
    base_fanout: int = 3,
    num_keys: int = 64,
    txn_size: int = 4,
    commit_rate: float = 60.0,
    burst: int = 8,
    duration: float = 12.0,
    drain: float = 8.0,
    loss_rate: float = 0.02,
    base_latency: float = 0.005,
    net_jitter: float = 0.002,
    dispatch_cost: float = 0.004,
    record_service: float = 0.0005,
    seed: int = 31,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E12 batched transport: flush window x batch size x "
                   "fan-out across both delivery pipelines",
        claim="group frames amortize per-message dispatch and wire costs "
              "(the unbatched pubsub row saturates; batched rows keep up "
              "and cut frames/retransmits) while the linger window is a "
              "latency floor — and a lost frame still attributes every "
              "one of its N records",
    )
    table = result.new_table(
        "batching sweep",
        ["config", "batch", "linger_ms", "fanout", "frames", "wire_msgs",
         "msgs_per_frame", "retransmits", "applied", "throughput_rps",
         "e2e_p50_ms", "e2e_p99_ms", "wire_lost", "lost_attributed"],
    )
    # real encoded wire volume (net.bytes.*): how many bytes batching
    # actually saves per message once frame overhead is amortized
    bytes_table = result.new_table(
        "wire bytes",
        ["config", "batch", "linger_ms", "fanout", "bytes_sent",
         "bytes_delivered", "bytes_dropped", "bytes_per_frame",
         "bytes_per_msg"],
    )
    keys = key_universe(num_keys)
    combos = _sweep(batch_sizes, lingers_ms, fanouts, base_batch,
                    base_linger_ms, base_fanout)

    for system in pipelines:
        for batch, linger_ms, fanout, reliable in combos:
            batched = batch > 1
            batch_cfg = (
                BatchConfig(max_batch=batch, max_linger=linger_ms / 1000.0)
                if batched else None
            )
            sim = Simulation(seed=seed)
            store = MVCCStore(clock=sim.now)
            for i, key in enumerate(keys):
                store.put(key, {"v": -1, "j": i})
            tracer = Tracer(sim, name=f"{system}-b{batch}")
            tracer.observe_store(store)
            sharder = AutoSharder(
                sim, [f"node-{i}" for i in range(fanout)],
                AutoSharderConfig(notify_latency=0.01, notify_jitter=0.01),
                auto_rebalance=False,
            )
            net = Network(sim, NetworkConfig(
                base_latency=base_latency, jitter=net_jitter,
                loss_rate=loss_rate,
            ), tracer=tracer)
            registries = [net.metrics]

            if system == "pubsub":
                channel_cfg = ChannelConfig(
                    reliable=reliable,
                    retry=_RETRY if reliable else None,
                    batch=batch_cfg,
                )
                broker = Broker(sim, tracer=tracer)
                registries.append(broker.metrics)
                nodes = [
                    PubsubCacheNode(
                        sim, f"node-{i}", store, InvalidationMode.NAIVE,
                        config=CacheNodeConfig(fetch_latency=0.01),
                        tracer=tracer,
                    )
                    for i in range(fanout)
                ]
                # dispatch cost is per handler invocation: the unbatched
                # row pays it per record, batched rows once per group
                FreeInvalidationPipeline(
                    sim, store, broker, sharder, nodes,
                    network=net, resilience=channel_cfg, tracer=tracer,
                    delivery_batch=batch,
                    batch_overhead=dispatch_cost if batched else 0.0,
                    group_commit=batched,
                    service_time=record_service + (
                        0.0 if batched else dispatch_cost
                    ),
                )
                terminal = hops.CACHE_APPLY
            else:
                channel_cfg = ChannelConfig(
                    reliable=reliable,
                    retry=_RETRY if reliable else None,
                    ordered=reliable,
                    batch=batch_cfg,
                )
                ws_local = WatchSystem(sim, name="src-ws", tracer=tracer)
                DirectIngestBridge(
                    sim, store.history, ws_local, progress_interval=0.25
                )
                ws_remote = WatchSystem(sim, name="edge-ws", tracer=tracer)
                ReliableFanoutEndpoint(
                    sim, net, "fanout-endpoint", ws_remote,
                    config=channel_cfg, tracer=tracer,
                )
                ReliableFanoutLink(
                    sim, ws_local, net, "fanout-link",
                    remote="fanout-endpoint", config=channel_cfg,
                    tracer=tracer,
                )
                nodes = [
                    WatchCacheNode(
                        sim, f"node-{i}", store, ws_remote,
                        cache_config=LinkedCacheConfig(snapshot_latency=0.02),
                        tracer=tracer,
                    )
                    for i in range(fanout)
                ]
                for node in nodes:
                    sharder.subscribe(node.on_assignment)
                terminal = hops.WATCH_APPLY

            _txn_writer(
                sim, store, keys, txn_size, commit_rate, duration, burst
            )
            sim.run(until=duration + drain)

            applied, span = _terminal_stats(tracer, terminal)
            frames = net.metrics.counter("net.frames.sent").value
            wire_msgs = net.metrics.counter("net.payload.msgs").value
            summary = trace_summary_row(TraceIndex(tracer.log))
            transport = "reliable" if reliable else "fireforget"
            table.add(
                config=f"{system}-{transport}",
                batch=batch,
                linger_ms=linger_ms if batched else 0.0,
                fanout=fanout,
                frames=frames,
                wire_msgs=wire_msgs,
                msgs_per_frame=(
                    round(wire_msgs / frames, 2) if frames else None
                ),
                retransmits=_metric_sum(registries, ".retransmits"),
                applied=applied,
                throughput_rps=(
                    round(applied / span, 1) if span else None
                ),
                e2e_p50_ms=summary["e2e_p50_ms"],
                e2e_p99_ms=summary["e2e_p99_ms"],
                wire_lost=summary["wire_lost"],
                lost_attributed=summary["lost_attributed"],
            )
            bytes_sent = net.metrics.counter("net.bytes.sent").value
            bytes_delivered = net.metrics.counter("net.bytes.delivered").value
            bytes_dropped = sum(
                value for name, value in net.metrics.snapshot().items()
                if name.startswith("net.bytes.dropped.")
            )
            bytes_table.add(
                config=f"{system}-{transport}",
                batch=batch,
                linger_ms=linger_ms if batched else 0.0,
                fanout=fanout,
                bytes_sent=bytes_sent,
                bytes_delivered=bytes_delivered,
                bytes_dropped=int(bytes_dropped),
                bytes_per_frame=(
                    round(bytes_sent / frames, 1) if frames else None
                ),
                bytes_per_msg=(
                    round(bytes_sent / wire_msgs, 1) if wire_msgs else None
                ),
            )

    result.notes.append(
        "batch=1 rows are the fully unbatched baseline (no group commit, "
        "no frames, per-message delivery) and pay the dispatch cost per "
        "record; batched rows pay it per handler invocation.  wire_msgs "
        "counts payloads crossing the network, so msgs_per_frame is the "
        "realized (not configured) frame fill.  The fire-and-forget rows "
        "exist for the attribution bar: every record lost inside a "
        "dropped frame must be attributed to that frame's drop event "
        "(wire_lost == lost_attributed)."
    )
    result.notes.append(
        "wire bytes are real encoded frame sizes (repro.sim.wire codec) "
        "from the net.bytes.* counters: sent = delivered + dropped for "
        "every row.  Batching cuts total bytes_sent (acks, retransmitted "
        "duplicates, and per-message channel envelopes collapse into "
        "per-frame ones) even though group-commit metadata makes the "
        "individual record slightly larger — bytes_per_frame times "
        "msgs_per_frame, not bytes_per_msg, is where the amortization "
        "shows."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    batch_sizes=(1, 16),
    lingers_ms=(5.0,),
    fanouts=(3,),
    num_keys=48,
    duration=6.0,
    drain=6.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Batching changes the wire shape, never what is applied."""
    rows = result.table("batching sweep").rows

    def cells(config):
        """(unbatched row, base-cell batched row) of one config."""
        unbatched = next(
            r for r in rows if r["config"] == config and r["batch"] == 1
        )
        batched = next(
            r for r in rows
            if r["config"] == config
            and r["batch"] == params["base_batch"]
            and r["linger_ms"] == params["base_linger_ms"]
            and r["fanout"] == params["base_fanout"]
        )
        return unbatched, batched

    for system in params["pipelines"]:
        unbatched, batched = cells(f"{system}-reliable")
        assert unbatched["applied"] == batched["applied"] > 0, system
        assert batched["frames"] < unbatched["frames"] / 4, system
        assert batched["msgs_per_frame"] > 2.0, system
        assert batched["retransmits"] < unbatched["retransmits"], system
        # a lost frame still attributes all N coalesced records
        fireforget = next(
            r for r in rows if r["config"] == f"{system}-fireforget"
        )
        assert (
            fireforget["wire_lost"] == fireforget["lost_attributed"] > 0
        ), system
    # the throughput crossover: the unbatched pubsub consumer pays the
    # dispatch cost per record, saturates, and queues
    unbatched, batched = cells("pubsub-reliable")
    assert unbatched["e2e_p50_ms"] > 4 * batched["e2e_p50_ms"]
