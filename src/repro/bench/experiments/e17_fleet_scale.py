"""E17 — shard-parallel fleet: multi-million sessions across processes.

E14 located the single-process ceiling (~500k sessions); the
MigratoryData deployment the paper's scale story is measured against
holds ~10M.  E17 climbs the next rung the way the Kafka-vs-RabbitMQ
study says every datacenter broker does — **partition the fleet**: the
session population splits across N independent, fully deterministic
simulation shards (seeded via the md5 hash in ``repro.pubsub.topic``),
executed ``jobs`` worker processes wide by
:class:`repro.fleet.FleetRunner`, and merged into ONE deterministic
report — counters summed, latency distributions merged exactly through
:class:`~repro.obs.mergehist.MergeHist`, traces concatenated in
``(shard_id, seq)`` order, and every conservation funnel (sessions,
messages, ``net.bytes.*``) re-checked per shard *and* merged.

Workload equivalence is the fairness contract: a rung's ``update_rate``
and ``total_groups`` are **totals**, split evenly across its shards.  A
monolith rung (1 shard) and a fleet rung (N shards) with the same total
population therefore carry identical per-session traffic — same
sessions per group, same updates per group — so their wall-clock ratio
is a like-for-like speedup.  On a single core that ratio isolates the
pure *partitioning* win: the pubsub frontend's per-message ingest scan
is O(sessions in the process) by contract, so the monolith pays
``sessions × messages`` scan work while N shards pay ``1/N`` of it
between them.  On a multi-core host, process parallelism multiplies on
top.  (The watch pipeline fans out through the relay's range index —
already O(matching) — so its single-core speedup is ~1x by design;
the sweep reports both.)

The sweep crosses two axes E14 could not reach:

- **population**: shards × sessions-per-shard to multi-million total
  sessions (the DEFAULTS sweep sums ≥4M across rungs, with a 2M-in-one-
  run headline rung);
- **storm mix**: ``delta`` reconnect storms (cursors within the
  catch-up threshold — E14's cheap regime) vs **mass-snapshot** storms
  (``EdgeFrontendConfig.reconnect_cursor_age`` forces every
  reconnecting cursor below the GC/compaction floor, so the watch path
  pays the snapshot re-serve and the pubsub path pays a full log
  replay across retention holes, surfacing ``replay_gaps``).

Mass snapshots are *measured, not accidentally quadratic*: the
frontend's per-(range, version) snapshot cache answers all but the
first re-serve of each distinct range from already-assembled items
(``snapshot_cache_hits``), and ``VersionedMap.items_at`` batch-scans
the range in one pass.

Wall-clock lives in its own clearly-marked nondeterministic tables;
everything else replays byte-identically for ANY jobs count (the E17
determinism test pins ``jobs=1 == jobs=N`` and run-to-run identity).
"""

from __future__ import annotations

from repro.bench import worlds
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.edge.frontend import (
    EdgeFrontendConfig,
    PubsubEdgeFrontend,
    WatchEdgeFrontend,
)
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.fleet import FleetRunner, ShardResult, ShardSpec
from repro.obs import MergeHist, Tracer
from repro.pubsub.broker import BrokerConfig
from repro.pubsub.log import RetentionPolicy
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream

#: sweep-table columns, pinned so CI catches shape drift
COLUMNS = [
    "config", "shards", "sessions", "commits", "delivered", "p50_ms",
    "p99_ms", "storm_p50_ms", "storm_p99_ms", "snapshots", "cache_hits",
    "replayed", "replay_gaps", "attributed_pct", "net_mb", "conserved",
]
TIMING_COLUMNS = [
    "config", "shards", "jobs", "wall_s", "sess_per_s", "peak_rss_mb",
]
SPEEDUP_COLUMNS = [
    "config", "sessions", "mono_wall_s", "fleet_wall_s", "speedup",
]


#: conservation funnels checked per shard AND merged (FleetReport)
_SESSION_FUNNEL = (
    "sess.offered",
    ("sess.delivered", "sess.coalesced", "sess.dropped",
     "sess.returned", "sess.queued"),
)


def run_shard(spec: ShardSpec) -> ShardResult:
    """One fleet shard: an independent deterministic mini-world.

    Everything — keyspace, writer, frontend, sessions, storm schedule —
    derives from the spec alone, so the shard replays identically
    whether it runs inline (``jobs=1``) or in a worker process.
    """
    import resource as _resource
    import time as _time

    p = spec.params
    started = _time.perf_counter()
    pipeline = p["pipeline"]
    storm = p["storm"]
    num_sessions = p["sessions_per_shard"]
    groups = p["groups_per_shard"]
    # shards namespace their keyspace and names, so merged traces and
    # reports never collide across shards
    shard = f"s{spec.shard_id:02d}"

    sim = Simulation(seed=spec.seed)
    store = MVCCStore(clock=sim.now)
    tracer = Tracer(sim, name=f"shard{spec.shard_id:02d}")
    tracer.observe_store(store)
    net = Network(sim, NetworkConfig(base_latency=0.002), tracer=tracer)

    snapshot_storm = storm == "snapshot"
    config = EdgeFrontendConfig(
        session=SessionConfig(
            policy=(
                SlowConsumerPolicy.COALESCE if pipeline == "watch"
                else SlowConsumerPolicy.DROP
            ),
            max_queue=p["max_queue"],
            initial_credits=p["initial_credits"],
            delivery_latency=0.001,
        ),
        catchup_threshold=(
            p["snapshot_threshold"] if snapshot_storm
            else p["delta_threshold"]
        ),
        # the mass-snapshot knob: reconnecting cursors are treated as
        # hopelessly far behind, whatever they really hold
        reconnect_cursor_age=10 ** 9 if snapshot_storm else None,
        drain_interval=p["drain_interval"],
        trace_sample=p["trace_sample"],
        feed_progress=False,
    )

    connect_window = p["connect_window"]
    write_start = connect_window + 0.5
    duration = p["duration"]
    drain = p["drain"]
    end_at = write_start + duration + drain
    storm_at = write_start + duration / 2.0

    times = worlds.commit_times(sim, store)
    # fixed-edge MergeHists: the samples merge exactly across the
    # fleet's process boundary
    calm_hist = MergeHist.for_latency()
    storm_hist = MergeHist.for_latency()
    sample = worlds.storm_split(
        sim, storm_at, calm_hist.record, storm_hist.record
    )

    # pubsub: gc_interval well inside the run so the retention floor is
    # real — by storm time the logs have been trimmed, and replays from
    # aged cursors cross silent holes, counted as replay_gaps
    source = worlds.edge_source(
        sim, store, tracer, pipeline,
        broker_config=BrokerConfig(gc_interval=2.0),
        retention=RetentionPolicy(max_messages=p["retention_messages"]),
    )
    if pipeline == "watch":
        # quiesce the wire before cutoff: the bridge ticks progress
        # frames forever, and a frame in flight at end_at would
        # (rightly) fail the exact net.bytes funnel.  Everything the
        # writer commits is long since forwarded by mid-drain.
        sim.call_at(end_at - drain / 2.0, source.bridge.close)
        frontend = WatchEdgeFrontend(
            sim, f"{shard}-fe", source.watch, source.snapshot,
            net=net, config=config, tracer=tracer,
        )
    else:
        frontend = PubsubEdgeFrontend(
            sim, f"{shard}-fe", source.broker, "updates",
            net=net, config=config, tracer=tracer,
        )

    placement = SessionPlacement(sim, [frontend])
    lat_sample = p["lat_client_sample"]
    clients = worlds.stagger_connects(sim, [
        worlds.LatencyClient(
            sim, f"{shard}c{i:07d}", placement,
            key_range=worlds.group_range(f"{shard}/g{i % groups:03d}"),
            service_time=0.0,
            reconnect_delay=0.3,
            commit_times=times,
            sink=sample if i % lat_sample == 0 else None,
        )
        for i in range(num_sessions)
    ], connect_window)

    keys = worlds.group_keys(
        [f"{shard}/g{group:03d}" for group in range(groups)],
        p["keys_per_group"],
    )
    writer = WriteStream(
        sim, store, UniformKeys(sim, keys), rate=p["rate"],
        value_fn=lambda n: n,
    )
    sim.call_at(write_start, writer.start)
    sim.call_at(write_start + duration, writer.stop)

    # the reconnect storm: a deterministic sample drops inside the
    # window and returns after a bounded-exponential holdoff
    worlds.reconnect_storm(
        sim, clients, p["storm_fraction"], storm_at, p["storm_window"],
        p["downtime_mean"],
    )

    sim.run(until=end_at)

    # ------------------------------------------------------------------
    # shard accounting
    totals, restale = worlds.fold_client_totals(clients)

    counters = {f"sess.{key}": value for key, value in totals.items()}
    counters["commits"] = int(store.last_version)
    counters["edge.connects"] = frontend.connects
    counters["edge.reconnects"] = len(restale)
    counters["edge.catchups"] = frontend.catchups_served
    if pipeline == "watch":
        counters["edge.snapshots"] = frontend.snapshots_served
        counters["edge.snapshot_cache_hits"] = frontend.snapshot_cache_hits
        counters["edge.feed_resyncs"] = frontend.feed_resyncs
        counters["msgs.relay_head"] = int(frontend.head_version())
    else:
        counters["edge.replayed"] = frontend.replayed
        counters["edge.replay_gaps"] = frontend.replay_gaps
        counters["msgs.published"] = int(
            source.broker.metrics.counter("pubsub.published").value
        )
    for name, value in sorted(net.metrics.snapshot().items()):
        if name.startswith("net.bytes."):
            counters[name] = int(value)

    return ShardResult(
        shard_id=spec.shard_id,
        counters=counters,
        hists={"lat.calm": calm_hist, "lat.storm": storm_hist},
        trace_jsonl=tracer.to_jsonl(),
        info={
            "wall": _time.perf_counter() - started,
            # per-process peak (kB on Linux).  With maxtasksperchild=1
            # each shard's worker dies after its task, so a fleet's
            # peak-per-process is ~1/N of the monolith's — the memory
            # half of the partition-the-fleet argument.  In-process
            # runs (jobs=1) accumulate across shards; still an honest
            # per-process peak.
            "maxrss_kb": _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss,
        },
    )


class _MergedTrace:
    """Adapter so merged fleet traces export through the existing
    ``--trace-dir`` plumbing (duck-types a Tracer: ``.log`` sized via
    ``len``, ``.to_jsonl()``)."""

    def __init__(self, jsonl: str) -> None:
        self._jsonl = jsonl
        self.log = jsonl.splitlines()

    def to_jsonl(self) -> str:
        return self._jsonl


def _funnels(pipeline: str, report) -> dict:
    funnels = {"sessions": _SESSION_FUNNEL}
    if pipeline == "watch":
        # every commit the store made is known to the shard's relay
        funnels["messages"] = ("commits", ("msgs.relay_head",))
    else:
        # single-key writes: exactly one publish per commit
        funnels["messages"] = ("commits", ("msgs.published",))
    dropped = [
        key for key in report.counters
        if key.startswith("net.bytes.dropped")
    ]
    funnels["net.bytes"] = (
        "net.bytes.sent", tuple(["net.bytes.delivered", *dropped])
    )
    return funnels


def run(
    # rung tuples: (pipeline, num_shards, sessions_per_shard, storm, jobs)
    rungs=(
        ("watch", 1, 1_000_000, "delta", 1),      # monolith speedup base
        ("watch", 4, 250_000, "delta", 4),        # same 1M, fleet side
        ("watch", 8, 250_000, "snapshot", 8),     # the 2M mass-snapshot rung
        ("pubsub", 1, 32_000, "snapshot", 1),     # monolith speedup base
        ("pubsub", 4, 8_000, "snapshot", 4),      # same 32k, fleet side
    ),
    total_groups: int = 64,
    keys_per_group: int = 8,
    update_rate: float = 80.0,
    duration: float = 8.0,
    drain: float = 12.0,
    connect_window: float = 3.0,
    storm_fraction: float = 0.3,
    storm_window: float = 1.5,
    downtime_mean: float = 1.5,
    initial_credits: int = 8,
    max_queue: int = 256,
    drain_interval: float = 0.001,
    delta_threshold: int = 10_000,
    snapshot_threshold: int = 64,
    retention_messages: int = 40,
    lat_client_sample: int = 16,
    trace_sample: int = 4096,
    seed: int = 1701,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E17 shard-parallel fleet: multi-million sessions "
                   "across worker processes, delta vs mass-snapshot "
                   "storms",
        claim="partitioning the session population across independent "
              "deterministic shards merges into one byte-identical "
              "report (counters summed, histograms merged exactly, "
              "traces in (shard, seq) order) with every conservation "
              "funnel intact per shard and merged, and beats the "
              "monolith's wall clock on the same total population — "
              "the partition-the-fleet rung toward the 10M-user "
              "deployment",
    )
    sweep = result.new_table("fleet sweep", list(COLUMNS))
    timing = result.new_table(
        "wall clock (nondeterministic; excluded from determinism gates)",
        list(TIMING_COLUMNS),
    )
    speedup_table = result.new_table(
        "speedup vs 1-process monolith (nondeterministic; excluded "
        "from determinism gates)",
        list(SPEEDUP_COLUMNS),
    )
    traces = {}
    result.artifacts["tracers"] = traces
    result.artifacts["reports"] = reports = {}

    walls: dict = {}
    for pipeline, num_shards, per_shard, storm, jobs in rungs:
        if total_groups % num_shards:
            raise ValueError(
                f"total_groups={total_groups} must divide evenly into "
                f"{num_shards} shards"
            )
        params = dict(
            pipeline=pipeline,
            storm=storm,
            sessions_per_shard=per_shard,
            # totals split across shards: same per-session traffic on
            # both sides of every monolith-vs-fleet pair
            groups_per_shard=total_groups // num_shards,
            rate=update_rate / num_shards,
            keys_per_group=keys_per_group,
            duration=duration,
            drain=drain,
            connect_window=connect_window,
            storm_fraction=storm_fraction,
            storm_window=storm_window,
            downtime_mean=downtime_mean,
            initial_credits=initial_credits,
            max_queue=max_queue,
            drain_interval=drain_interval,
            delta_threshold=delta_threshold,
            snapshot_threshold=snapshot_threshold,
            retention_messages=retention_messages,
            lat_client_sample=lat_client_sample,
            trace_sample=trace_sample,
        )
        runner = FleetRunner(
            run_shard, num_shards=num_shards, run_seed=seed, jobs=jobs,
        )
        report = runner.run(params)
        report.check_conservation(_funnels(pipeline, report))

        total_sessions = num_shards * per_shard
        config_name = f"{pipeline}-{storm}"
        label = f"{config_name}-{num_shards}x{per_shard}"
        reports[label] = report
        traces[label] = _MergedTrace(report.trace_jsonl())
        walls[(config_name, total_sessions, num_shards)] = report.wall

        counters = report.counters
        calm = report.hists["lat.calm"]
        storm_h = report.hists["lat.storm"]
        sweep.add(
            config=config_name,
            shards=num_shards,
            sessions=total_sessions,
            commits=counters["commits"],
            delivered=counters.get("sess.delivered", 0),
            p50_ms=round(calm.quantile(0.50) * 1000, 2),
            p99_ms=round(calm.quantile(0.99) * 1000, 2),
            storm_p50_ms=round(storm_h.quantile(0.50) * 1000, 2),
            storm_p99_ms=round(storm_h.quantile(0.99) * 1000, 2),
            snapshots=counters.get("edge.snapshots", 0),
            cache_hits=counters.get("edge.snapshot_cache_hits", 0),
            replayed=counters.get("edge.replayed", 0),
            replay_gaps=counters.get("edge.replay_gaps", 0),
            attributed_pct=worlds.attributed_pct({
                key[5:]: value for key, value in counters.items()
                if key.startswith("sess.")
            }),
            net_mb=round(counters.get("net.bytes.sent", 0) / 1e6, 2),
            conserved=True,  # check_conservation raised otherwise
        )
        timing.add(
            config=config_name,
            shards=num_shards,
            jobs=jobs,
            wall_s=round(report.wall, 1),
            sess_per_s=round(total_sessions / report.wall)
            if report.wall else 0,
            peak_rss_mb=round(max(
                shard.info.get("maxrss_kb", 0) for shard in report.shards
            ) / 1024),
        )

    # speedup pairs: same (config, total sessions), monolith vs fleet
    for (config_name, total, num_shards), wall in sorted(walls.items()):
        if num_shards != 1:
            continue
        fleet = sorted(
            (shards, fleet_wall)
            for (cfg, tot, shards), fleet_wall in walls.items()
            if cfg == config_name and tot == total and shards > 1
        )
        for shards, fleet_wall in fleet:
            speedup_table.add(
                config=f"{config_name}-{shards}w",
                sessions=total,
                mono_wall_s=round(wall, 1),
                fleet_wall_s=round(fleet_wall, 1),
                speedup=round(wall / fleet_wall, 2) if fleet_wall else 0.0,
            )

    result.notes.append(
        "merged reports are byte-identical for any jobs count (the "
        "determinism suite pins jobs=1 == jobs=N); the wall-clock and "
        "speedup tables are the only nondeterministic output"
    )
    result.notes.append(
        "single-core speedup comes from partitioning alone: the pubsub "
        "frontend's per-message ingest scan is O(sessions in the "
        "process), so N shards do 1/N of the monolith's scan work; the "
        "watch relay's range index is already O(matching), so on one "
        "core its fleet leg only pays the process overhead (ratio < 1) "
        "— partitioning the watch pipeline needs real cores"
    )
    result.notes.append(
        "the retention floor is per-broker: the monolith's partition "
        "logs hold N shards' traffic and GC sooner, so mass-snapshot "
        "replays cross more holes (replay_gaps) than the same "
        "population sharded — a real operational argument for "
        "partitioning beyond wall-clock"
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    rungs=(
        ("watch", 1, 800, "delta", 1),
        ("watch", 2, 400, "delta", 2),
        ("watch", 2, 400, "snapshot", 2),
        ("pubsub", 1, 600, "snapshot", 1),
        ("pubsub", 2, 300, "snapshot", 2),
    ),
    total_groups=16,
    update_rate=20.0,
    duration=6.0,
    drain=10.0,
    connect_window=2.0,
    storm_window=1.0,
    downtime_mean=1.0,
    snapshot_threshold=24,
    retention_messages=12,
    lat_client_sample=4,
    trace_sample=64,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Every rung conserves and attributes; the mass-snapshot
    machinery really ran; the monolith crosses more replay holes."""
    sweep = result.table("fleet sweep")
    assert sweep.columns == COLUMNS, sweep.columns
    assert len(sweep.rows) == len(params["rungs"])
    # conservation held in every shard and merged (run() raises
    # otherwise); attribution is total on every rung
    assert all(row["conserved"] for row in sweep.rows)
    assert all(row["attributed_pct"] == 100.0 for row in sweep.rows)
    # monolith vs fleet pairs carry the same total population
    for row in sweep.rows[:2]:
        assert row["sessions"] == sweep.rows[0]["sessions"]
    # watch rungs served snapshots through the cache, pubsub rungs
    # replayed across a real retention floor
    watch_snap = [r for r in sweep.rows if r["config"] == "watch-snapshot"]
    assert all(r["snapshots"] > 0 for r in watch_snap)
    assert all(r["cache_hits"] > 0 for r in watch_snap)
    pubsub = [r for r in sweep.rows if r["config"] == "pubsub-snapshot"]
    assert all(r["replayed"] > 0 for r in pubsub)
    # the per-broker retention floor: the monolith's logs GC sooner,
    # so it crosses more replay holes than the fleet
    mono = next(r for r in pubsub if r["shards"] == 1)
    fleet = next(r for r in pubsub if r["shards"] > 1)
    assert mono["replay_gaps"] > fleet["replay_gaps"]
