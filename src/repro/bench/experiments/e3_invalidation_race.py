"""E3 — §3.2.2 / Figure 2: cache invalidation under auto-sharding.

A producer store updates objects; a dynamically sharded cache fleet
must stay fresh.  Configurations (rows):

- ``pubsub-naive``    — consumer group, key-hash routing, always ack.
  Routing is pubsub's, ownership is the sharder's; they disagree, so
  owners keep stale entries indefinitely.
- ``pubsub-owner``    — members ack only keys they believe they own
  (random rerouting on nack).  Fails exactly in the Figure 2 window:
  the old owner still believes, acks, and the new owner — which filled
  its cache just before the update — is never told.
- ``pubsub-lease``    — §3.2.2's mitigation: only the lease holder
  acks.  Staleness ~0, but handoffs leave ownerless windows
  (unavailability).
- ``pubsub-free``     — every node consumes the whole feed.  Correct,
  but per-node invalidation load equals the full update rate.
- ``pubsub-ttl``      — naive + TTL fallback: staleness bounded by the
  TTL instead of forever, at the cost of refill load and windows of
  staleness.
- ``watch``           — each node snapshots+watches its assigned
  ranges; handoffs resync.  Fresh, available (minus brief sync
  windows), per-node load proportional to its share.

Handoffs are driven by scripted ``move_key`` calls at a swept rate,
with continuous writes racing them.  After traffic quiesces we audit
permanently stale entries; during the run a prober measures staleness
and availability, and we record per-node invalidation message load.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentResult, signature_defaults
from repro.cache.cluster import CacheCluster, Prober
from repro.cache.invalidation import (
    FreeInvalidationPipeline,
    InvalidationMode,
    PubsubCacheNode,
    PubsubInvalidationPipeline,
)
from repro.cache.node import CacheNodeConfig
from repro.cache.watch_cache import WatchCacheNode
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.linked_cache import LinkedCacheConfig
from repro.core.watch_system import WatchSystem
from repro.obs import TraceIndex, Tracer
from repro.obs.report import trace_summary_row
from repro.pubsub.broker import Broker
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sharding.leases import LeaseManager
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def _build_pubsub(sim, store, sharder, num_nodes, mode, ttl=None, tracer=None):
    broker = Broker(sim, tracer=tracer)
    leases = None
    if mode is InvalidationMode.LEASE:
        leases = LeaseManager(sim)
    nodes = [
        PubsubCacheNode(
            sim, f"node-{i}", store, mode, leases=leases,
            config=CacheNodeConfig(ttl=ttl),
            tracer=tracer,
        )
        for i in range(num_nodes)
    ]
    pipeline = PubsubInvalidationPipeline(
        sim, store, broker, sharder, nodes, tracer=tracer
    )
    return nodes, pipeline, leases


def _build_free(sim, store, sharder, num_nodes, tracer=None):
    broker = Broker(sim, tracer=tracer)
    nodes = [
        PubsubCacheNode(
            sim, f"node-{i}", store, InvalidationMode.NAIVE,
            config=CacheNodeConfig(),
            tracer=tracer,
        )
        for i in range(num_nodes)
    ]
    pipeline = FreeInvalidationPipeline(
        sim, store, broker, sharder, nodes, tracer=tracer
    )
    return nodes, pipeline


def _build_watch(sim, store, sharder, num_nodes, tracer=None):
    ws = WatchSystem(sim, tracer=tracer)
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(8), progress_interval=0.2
    )
    nodes = [
        WatchCacheNode(
            sim, f"node-{i}", store, ws,
            cache_config=LinkedCacheConfig(snapshot_latency=0.02),
            tracer=tracer,
        )
        for i in range(num_nodes)
    ]
    for node in nodes:
        sharder.subscribe(node.on_assignment)
    return nodes, ws


def run(
    configs=("pubsub-naive", "pubsub-owner", "pubsub-lease",
             "pubsub-free", "pubsub-ttl", "watch"),
    num_nodes: int = 3,
    num_keys: int = 150,
    update_rate: float = 20.0,
    handoff_interval: float = 0.4,
    duration: float = 120.0,
    drain: float = 30.0,
    probe_rate: float = 50.0,
    seed: int = 47,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E3 invalidation race under auto-sharding "
                   "(§3.2.2, Figure 2)",
        claim="pubsub consumer groups miss invalidations during dynamic "
              "handoffs (permanent staleness); leases trade staleness "
              "for unavailability; free consumers trade it for per-node "
              "load; watch is fresh, available, and load-proportional",
    )
    table = result.new_table(
        "configurations",
        ["config", "handoffs", "perm_stale", "stale_reads_frac",
         "unavail_frac", "per_node_msgs", "resyncs"],
    )
    trace_table = result.new_table(
        "trace summary",
        ["config", "traced_updates", "delivered", "e2e_p50_ms", "e2e_p99_ms",
         "wire_lost", "lost_attributed"],
    )
    tracers = {}
    result.artifacts["tracers"] = tracers
    keys = key_universe(num_keys)

    for config_name in configs:
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        # prefill so caches have something to serve
        for i, key in enumerate(keys):
            store.put(key, {"v": -1, "i": i})
        # trace only post-prefill commits: attach after the seed writes
        tracer = Tracer(sim)
        tracers[config_name] = tracer
        tracer.observe_store(store)
        sharder = AutoSharder(
            sim, [f"node-{i}" for i in range(num_nodes)],
            # assignment propagation takes up to ~300ms — the realistic
            # window in which nodes' ownership beliefs diverge
            AutoSharderConfig(notify_latency=0.05, notify_jitter=0.25),
        )
        # fine-grained slices (~5 keys each), as a load-driven sharder
        # would have split a hot keyspace; a handoff then moves a few
        # keys, not a third of the fleet's entries
        for boundary_idx in range(0, num_keys, 5):
            sharder.split_at(keys[boundary_idx])
        leases = None
        ws = None
        if config_name == "pubsub-naive":
            nodes, pipeline, _ = _build_pubsub(
                sim, store, sharder, num_nodes, InvalidationMode.NAIVE,
                tracer=tracer,
            )
        elif config_name == "pubsub-owner":
            nodes, pipeline, _ = _build_pubsub(
                sim, store, sharder, num_nodes, InvalidationMode.OWNER_ACK,
                tracer=tracer,
            )
        elif config_name == "pubsub-lease":
            nodes, pipeline, leases = _build_pubsub(
                sim, store, sharder, num_nodes, InvalidationMode.LEASE,
                tracer=tracer,
            )
        elif config_name == "pubsub-free":
            nodes, pipeline = _build_free(
                sim, store, sharder, num_nodes, tracer=tracer
            )
        elif config_name == "pubsub-ttl":
            nodes, pipeline, _ = _build_pubsub(
                sim, store, sharder, num_nodes, InvalidationMode.NAIVE,
                ttl=duration / 4.0, tracer=tracer,
            )
        elif config_name == "watch":
            nodes, ws = _build_watch(
                sim, store, sharder, num_nodes, tracer=tracer
            )
        else:
            raise ValueError(f"unknown config {config_name!r}")

        cluster = CacheCluster(sim, sharder, nodes, store)
        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate,
            value_fn=lambda n: {"v": n},
        )
        writer.start()
        prober = Prober(sim, cluster, keys, rate=probe_rate)
        prober.start()

        # scripted handoffs: the sharder moves a *hot* key's slice (hot
        # keys are what load-driven sharders move), and — because it is
        # hot — that key keeps being read and updated right through the
        # handoff window.  This is exactly Figure 2's interleaving.
        handoffs = {"count": 0}
        move_order = list(keys)
        sim.rng.shuffle(move_order)

        def handoff_driver():
            # each key's slice moves at most once, so a missed
            # invalidation in its handoff window has no later handoff
            # to accidentally repair it — the Figure 2 end state
            for key in move_order:
                if sim.now() >= duration:
                    break
                target = f"node-{sim.rng.randrange(num_nodes)}"
                sharder.move_key(key, target)
                handoffs["count"] += 1
                for dt in (0.01, 0.03, 0.06, 0.09, 0.12, 0.15, 0.25, 0.4):
                    sim.call_after(dt, lambda key=key: cluster.read(key))
                for dt in (0.04, 0.1, 0.17):
                    sim.call_after(
                        dt,
                        lambda key=key: store.put(
                            key, {"v": sim.now(), "hot": True}
                        ),
                    )
                yield Timeout(handoff_interval)

        sim.spawn(handoff_driver(), name="handoffs")
        # the background writer stops halfway so that, for keys handed
        # off late, the handoff-window updates are their *final* writes
        # — a missed invalidation then has nothing left to repair it
        sim.call_at(duration * 0.5, writer.stop)
        # the prober keeps reading through the drain: missed
        # invalidations are *served*, not just latent
        sim.call_at(duration + drain * 0.8, prober.stop)
        sim.run(until=duration + drain)

        perm_stale = cluster.total_stale(keys)
        per_node_msgs = [
            getattr(node, "invalidation_messages_seen", None) for node in nodes
        ]
        if per_node_msgs[0] is None:  # watch nodes: events applied
            per_node_msgs = [node.events_applied for node in nodes]
        resyncs = sum(getattr(node, "resync_count", 0) for node in nodes)
        table.add(
            config=config_name,
            handoffs=handoffs["count"],
            perm_stale=perm_stale,
            stale_reads_frac=round(prober.stats.stale_fraction, 4),
            unavail_frac=round(prober.stats.unavailable_fraction, 4),
            per_node_msgs=max(per_node_msgs) if per_node_msgs else 0,
            resyncs=resyncs,
        )
        trace_table.add(config=config_name, **trace_summary_row(TraceIndex(tracer.log)))

    result.notes.append(
        "perm_stale counts cached entries still serving outdated values "
        "after all traffic quiesced — the application has no way to "
        "detect them (§3.2.2).  pubsub-free per_node_msgs equals the "
        "whole feed; watch per_node_msgs is the node's range share."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    configs=("pubsub-naive", "pubsub-owner", "watch"),
    num_keys=100,
    duration=45.0,
    drain=15.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Naive pubsub goes permanently stale; each mitigation pays its
    own price; watch pays none.  Mitigation rows are asserted when the
    run's ``configs`` include them."""
    rows = {row["config"]: row for row in result.table("configurations").rows}
    # keyed on what was requested: a requested row that is missing
    # raises KeyError instead of passing unasserted
    asked = params["configs"]
    naive = rows["pubsub-naive"]
    watch = rows["watch"]

    # dynamic sharding + consumer-group routing leaves owners
    # permanently stale, and stale reads are served meanwhile
    assert naive["perm_stale"] > 0
    assert naive["stale_reads_frac"] > 0.05
    # watch: no permanent staleness, ever
    assert watch["perm_stale"] == 0
    assert watch["stale_reads_frac"] < 0.01
    # watch nodes process only their range's share of events
    assert watch["per_node_msgs"] < naive["per_node_msgs"]

    if "pubsub-owner" in asked:
        # the charitable owner-ack variant is far better but the
        # Figure 2 race window still exists (it may or may not fire in
        # a short run, so only the ordering is asserted)
        assert rows["pubsub-owner"]["perm_stale"] <= naive["perm_stale"]
    if "pubsub-lease" in asked:
        # leases fix staleness but cost availability (§3.2.2)
        lease = rows["pubsub-lease"]
        assert lease["perm_stale"] == 0
        assert lease["unavail_frac"] > watch["unavail_frac"]
    if "pubsub-free" in asked:
        # free consumers fix staleness but every node eats the whole feed
        free = rows["pubsub-free"]
        assert free["perm_stale"] == 0
        assert free["per_node_msgs"] > 3 * watch["per_node_msgs"]
    if "pubsub-ttl" in asked:
        # TTL bounds staleness (no permanent) but serves stale meanwhile
        ttl = rows["pubsub-ttl"]
        assert ttl["perm_stale"] == 0
        assert ttl["stale_reads_frac"] > watch["stale_reads_frac"]
