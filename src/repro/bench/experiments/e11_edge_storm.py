"""E11 — edge delivery tier under a reconnect storm with slow clients.

The edge tier (``repro.edge``) terminates client sessions on frontend
nodes so that neither pipeline's *source* tier ever sees per-client
load.  This experiment drives many clients — a fraction of them slow —
through a mass-disconnect/reconnect window mid-run, and contrasts the
two pipelines' slow-consumer stories (§3.2, §4.4):

- ``watch-coalesce`` — frontends replicate via a
  :class:`~repro.core.relay.WatchRelay`; sessions keep only the latest
  value per key.  Slow clients converge to the final state with a
  queue bounded by the number of distinct keys, *nothing* is dropped,
  and reconnects are served from the frontend's own state (delta
  catch-up or edge snapshot) — the source tier's cost stays one
  standing stream per frontend through the whole storm.
- ``watch-disconnect`` — same pipeline, but overflow closes the
  session.  Slow clients cycle: queued updates return to the durable
  cursor and reconnect re-serves them, trading delivery latency (and
  snapshot churn) for loss-freedom.
- ``pubsub-drop`` — frontends subscribe a free consumer per frontend;
  the every-message contract forbids coalescing, so a slow client's
  bounded queue must *shed* updates.  Every shed is traced as
  ``edge.drop`` so loss provenance attributes it ("dropped at edge") —
  visible loss, but loss all the same.
- ``pubsub-unbounded`` — the same pipeline refusing to shed: queue
  depth for slow clients grows without bound (the broker-side version
  of this pathology is E2's backlog growth).  Reconnect catch-up
  replays the *broker's partition logs* per client, so the storm
  multiplies read load on the source tier.

Every offered update must land in exactly one accounting bucket
(delivered / coalesced / dropped / returned-to-cursor / still queued):
the ``attributed_pct`` column is the conservation check and must read
100.0 for every configuration.
"""

from __future__ import annotations

from statistics import median

from repro._types import KeyRange
from repro.bench import worlds
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.edge.client import EdgeClient
from repro.edge.frontend import (
    EdgeFrontendConfig,
    PubsubEdgeFrontend,
    WatchEdgeFrontend,
)
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.obs import TraceIndex, Tracer
from repro.obs.report import trace_summary_row
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


_POLICIES = {
    "coalesce": SlowConsumerPolicy.COALESCE,
    "disconnect": SlowConsumerPolicy.DISCONNECT,
    "drop": SlowConsumerPolicy.DROP,
    "unbounded": SlowConsumerPolicy.DROP,  # with an unreachable bound
}


def _client_names(n: int):
    """Client names spread across the keyspace so the placement
    sharder distributes them over all frontends."""
    return [f"{chr(ord('a') + (26 * i) // n)}{i:03d}" for i in range(n)]


def _slow_indices(n: int, fraction: float):
    """Evenly interleaved slow clients (so every frontend gets some)."""
    num_slow = round(n * fraction)
    return {i for i in range(n) if (i * num_slow) % n < num_slow}


def run(
    configs=("watch-coalesce", "watch-disconnect",
             "pubsub-drop", "pubsub-unbounded"),
    num_frontends: int = 3,
    num_clients: int = 36,
    slow_fraction: float = 0.25,
    num_keys: int = 80,
    update_rate: float = 30.0,
    duration: float = 45.0,
    drain: float = 120.0,
    storm_at: float = 18.0,
    storm_fraction: float = 0.6,
    storm_window: float = 2.0,
    downtime_mean: float = 4.0,
    loss_rate: float = 0.02,
    base_latency: float = 0.002,
    slow_service_time: float = 0.1,
    fast_service_time: float = 0.002,
    max_queue: int = 96,
    catchup_threshold: int = 100,
    seed: int = 71,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E11 edge tier: reconnect storm and slow clients, "
                   "watch vs pubsub session policies",
        claim="watch sessions coalesce to bounded queues with zero loss "
              "and serve reconnects from edge state; pubsub sessions "
              "must either shed updates (attributed as 'dropped at "
              "edge') or grow unbounded queues, and reconnect catch-up "
              "replays the source-side log",
    )
    sessions_table = result.new_table(
        "edge sessions",
        ["config", "sessions", "storm_dc", "catchups", "snapshots",
         "replayed", "resyncs", "restale_p50", "restale_max",
         "peak_q_slow", "peak_q_fast"],
    )
    provenance_table = result.new_table(
        "delivery provenance",
        ["config", "offered", "delivered", "coalesced", "dropped_edge",
         "returned", "queued", "attributed_pct", "final_stale",
         "src_per_commit"],
    )
    trace_table = result.new_table(
        "trace summary",
        ["config", "traced_updates", "delivered", "e2e_p50_ms", "e2e_p99_ms",
         "wire_lost", "lost_attributed", "edge_dropped", "drop_provenance"],
    )
    tracers = {}
    result.artifacts["tracers"] = tracers
    keys = key_universe(num_keys)
    names = _client_names(num_clients)
    slow = _slow_indices(num_clients, slow_fraction)

    for config_name in configs:
        system, _, policy_name = config_name.partition("-")
        policy = _POLICIES[policy_name]
        bound = 1_000_000_000 if policy_name == "unbounded" else max_queue
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        tracer = Tracer(sim, name=config_name)
        tracers[config_name] = tracer
        tracer.observe_store(store)
        net = Network(sim, NetworkConfig(
            base_latency=base_latency, jitter=base_latency / 2,
            loss_rate=loss_rate,
        ), tracer=tracer)
        frontend_config = EdgeFrontendConfig(
            session=SessionConfig(
                # a 2-deep credit window caps a client's consumption
                # at 2/service_time items per second: that is what makes
                # the slow clients genuinely slow (20/s vs 30/s offered)
                policy=policy, max_queue=bound,
                initial_credits=2, delivery_latency=0.001,
            ),
            catchup_threshold=catchup_threshold,
        )

        source = worlds.edge_source(sim, store, tracer, system)
        if system == "watch":
            frontends = [
                WatchEdgeFrontend(
                    sim, f"fe{i}", source.watch, source.snapshot, net=net,
                    config=frontend_config, tracer=tracer,
                )
                for i in range(num_frontends)
            ]
        else:
            frontends = [
                PubsubEdgeFrontend(
                    sim, f"fe{i}", source.broker, "updates", net=net,
                    config=frontend_config, tracer=tracer,
                )
                for i in range(num_frontends)
            ]

        placement = SessionPlacement(sim, frontends)
        clients = worlds.stagger_connects(sim, [
            EdgeClient(
                sim, name, placement,
                service_time=(
                    slow_service_time if i in slow else fast_service_time
                ),
                reconnect_delay=0.3,
            )
            for i, name in enumerate(names)
        ], 0.5)

        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate,
            value_fn=lambda n: {"v": n},
        )
        writer.start()
        sim.call_at(duration, writer.stop)

        # the storm: a fraction of clients drop within a short window
        # and stay away for an exponential holdoff before reconnecting
        storm = worlds.reconnect_storm(
            sim, clients, storm_fraction, storm_at, storm_window,
            downtime_mean,
        )

        sim.run(until=duration + drain)

        # ------------------------------------------------------------------
        # accounting
        latest = dict(store.scan(KeyRange.all(), store.last_version))
        commits = int(store.last_version)
        totals, restale = worlds.fold_client_totals(clients)
        final_stale = 0
        peak_slow = peak_fast = 0
        for i, client in enumerate(clients):
            final_stale += sum(
                1 for key, value in latest.items()
                if client.state.get(key) != value
            )
            if i in slow:
                peak_slow = max(peak_slow, client.peak_queue)
            else:
                peak_fast = max(peak_fast, client.peak_queue)

        if system == "watch":
            src_load = sum(fe.link.events_shipped for fe in frontends)
            src_load += sum(fe.source_snapshots for fe in frontends)
            replayed = 0
            resyncs = sum(fe.feed_resyncs for fe in frontends)
            snapshots = sum(fe.snapshots_served for fe in frontends)
        else:
            src_load = sum(fe._consumer.processed for fe in frontends)
            replayed = sum(fe.replayed for fe in frontends)
            src_load += replayed
            resyncs = 0
            snapshots = 0  # pubsub has no snapshot to re-serve

        sessions_table.add(
            config=config_name,
            sessions=sum(c.connects for c in clients),
            storm_dc=storm.disconnects,
            catchups=sum(fe.catchups_served for fe in frontends),
            snapshots=snapshots,
            replayed=replayed,
            resyncs=resyncs,
            restale_p50=round(median(restale), 1) if restale else 0,
            restale_max=max(restale, default=0),
            peak_q_slow=peak_slow,
            peak_q_fast=peak_fast,
        )
        provenance_table.add(
            config=config_name,
            offered=totals["offered"],
            delivered=totals["delivered"],
            coalesced=totals["coalesced"],
            dropped_edge=totals["dropped"],
            returned=totals["returned"],
            queued=totals["queued"],
            attributed_pct=worlds.attributed_pct(totals),
            final_stale=final_stale,
            src_per_commit=round(src_load / commits, 2) if commits else 0.0,
        )
        index = TraceIndex(tracer.log)
        drop_provenance = sum(
            1 for record in index.loss_provenance()
            if record.cause == "dropped at edge"
        )
        trace_table.add(
            config=config_name,
            **trace_summary_row(index),
            edge_dropped=index.edge_summary()["dropped"],
            drop_provenance=drop_provenance,
        )

    result.notes.append(
        "attributed_pct is the conservation check: every offered update "
        "lands in exactly one of delivered/coalesced/dropped_edge/"
        "returned/queued, so it must read 100.0 in every row.  "
        "src_per_commit is source-tier work per committed write "
        "(relay stream events + store snapshots for watch; free-consumer "
        "deliveries + log replays for pubsub) — watch stays ~one stream "
        "per frontend through the storm, while pubsub reconnects replay "
        "the partition logs.  restale_* summarize how many versions "
        "(watch) or messages (pubsub) behind each *re*connect found the "
        "client; final_stale counts client-key pairs that never "
        "converged to the store's final value."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_frontends=2,
    num_clients=16,
    num_keys=48,
    update_rate=25.0,
    duration=20.0,
    drain=50.0,
    storm_at=8.0,
    storm_window=1.5,
    downtime_mean=2.5,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Every offered update is attributed; watch sessions bound their
    queues without loss, pubsub sessions shed or grow."""
    sessions = result.table("edge sessions")
    provenance = result.table("delivery provenance")
    trace = result.table("trace summary")

    # conservation: every offered update is attributed to exactly one
    # outcome bucket, in every configuration
    for row in provenance.rows:
        assert row["attributed_pct"] == 100.0, row["config"]

    coalesce = provenance.row_by("config", "watch-coalesce")
    disconnect = provenance.row_by("config", "watch-disconnect")
    drop = provenance.row_by("config", "pubsub-drop")
    unbounded = provenance.row_by("config", "pubsub-unbounded")

    # watch with coalescing: bounded queues, nothing dropped, and the
    # final state converges for every client — supersession is not loss
    assert coalesce["dropped_edge"] == 0
    assert coalesce["final_stale"] == 0
    assert coalesce["coalesced"] > 0
    coalesce_sessions = sessions.row_by("config", "watch-coalesce")
    assert coalesce_sessions["peak_q_slow"] <= params["num_keys"]

    # watch with disconnect: sessions cycle, queued updates return to
    # the durable cursor, and still nothing is lost
    assert disconnect["dropped_edge"] == 0
    assert disconnect["final_stale"] == 0
    assert disconnect["returned"] > 0
    disconnect_sessions = sessions.row_by("config", "watch-disconnect")
    assert disconnect_sessions["sessions"] > coalesce_sessions["sessions"]
    assert disconnect_sessions["snapshots"] > 0

    # pubsub with a bounded queue must shed, and every shed update is
    # attributed by trace provenance as "dropped at edge"
    assert drop["dropped_edge"] > 0
    drop_trace = trace.row_by("config", "pubsub-drop")
    assert drop_trace["drop_provenance"] == drop_trace["edge_dropped"]
    assert drop_trace["edge_dropped"] == drop["dropped_edge"]

    # pubsub refusing to shed grows a queue far beyond the bounded
    # watch-coalesce peak (every-message contract, no supersession)
    unbounded_sessions = sessions.row_by("config", "pubsub-unbounded")
    assert unbounded_sessions["peak_q_slow"] > (
        3 * coalesce_sessions["peak_q_slow"]
    )
    assert unbounded["dropped_edge"] == 0

    # reconnect catch-up hits the source tier only for pubsub: watch
    # storms are absorbed by the frontends' own relay state
    assert sessions.row_by("config", "pubsub-drop")["replayed"] > 0
    assert coalesce_sessions["replayed"] == 0
    assert drop["src_per_commit"] > coalesce["src_per_commit"]
