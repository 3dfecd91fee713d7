"""E14 — million-session edge scale-out: sessions × churn sweep.

The paper's production setting — and the ROADMAP's north star — is a
delivery tier "serving heavy traffic from millions of users"; the
MigratoryData benchmark (PAPERS.md) measures exactly this shape:
concurrent sessions × churn × delivery latency on one node.  E11
demonstrates the edge tier's *semantics* at ~40 clients; E14 measures
its *scaling ceiling* after the PR-7 machinery (docs/scale.md):

- slot-based :class:`~repro.edge.session_table.SessionTable` columns
  instead of per-object counter dicts;
- reconnect backoffs and connect staggering on the kernel's one event
  heap, whose tombstone compaction keeps cancelled timers from piling
  up (docs/scale.md § 2);
- shared-drain mode: ONE pump event per tick delivering for every
  ready session (O(active)), idle sessions off the hot path;
- per-session trace sampling (``TraceSampler``) so tracing stays
  bounded while the population grows.

The sweep drives the watch pipeline (relay-replicated frontends,
delta/snapshot reconnects) across session rungs with a mid-run
reconnect storm, and reports delivery p50/p99, storm-phase p99,
reconnect-recovery time, conservation (the E11 100%-attribution bar,
now summed in C over the table columns), and a deterministic
bytes-per-session estimate.
The pubsub frontend is deliberately absent: its per-message ingest
scan is O(sessions) by contract (every message to every session's
filter), so its wall is already visible at E11/E12 scale — see
docs/scale.md for the accounting.

Determinism: everything reported derives from the sim clock, seeded
RNG, and ``sys.getsizeof`` of fixed-shape objects — re-runs are
byte-identical (the E14 determinism test asserts it).
"""

from __future__ import annotations

import sys

from repro.bench import worlds
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.edge.frontend import EdgeFrontendConfig, WatchEdgeFrontend
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.obs import Tracer
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def _chain_bytes(frontends, clients, sample_stride: int) -> int:
    """Deterministic bytes/session estimate (docs/scale.md accounting).

    Sums ``sys.getsizeof`` over a strided sample of session chains
    (session + queue + feed + relay watcher + client + client dicts)
    plus the table's columns amortized over capacity.  Object sizes
    are fixed per interpreter build, so the estimate is deterministic.
    """
    sizeof = sys.getsizeof
    shared = sum(
        sizeof(column) for fe in frontends for column in (
            fe.table.offered, fe.table.delivered, fe.table.coalesced,
            fe.table.dropped, fe.table.returned, fe.table.snapshots,
            fe.table.peak_queue, fe.table.generation,
            fe.table._ready_next, fe.table._in_ready, fe.table._sessions,
        )
    )
    capacity = sum(fe.table.capacity for fe in frontends) or 1
    sampled = clients[::sample_stride]
    total = 0
    for client in sampled:
        session = client.session
        total += (
            sizeof(client) + sizeof(client.state) + sizeof(client.offsets)
            + sizeof(client.totals) + sizeof(client.close_reasons)
            + sizeof(client.staleness_at_connect)
        )
        if session is not None:
            total += sizeof(session) + sizeof(session._queue)
            if session._cells is not None:
                total += sizeof(session._cells)
            handle = session._feed_handle
            if handle is not None:
                total += sizeof(handle)  # relay-side WatcherSession
                queue = getattr(handle, "_queue", None)
                if queue is not None:
                    total += sizeof(queue)
                callback = getattr(handle, "callback", None)
                if callback is not None:
                    total += sizeof(callback)  # _SessionFeed
    per_chain = total // max(1, len(sampled))
    return per_chain + shared // capacity


def run(
    # (sessions, storm_fraction) rungs; E11's scale is 36 sessions, so
    # the ≥10x ceiling bar is any rung ≥ 360 holding p99 at par
    rungs=((1_000, 0.1), (1_000, 0.5), (10_000, 0.1), (10_000, 0.5),
           (100_000, 0.1), (100_000, 0.5), (500_000, 0.1)),
    num_frontends: int = 4,
    num_groups: int = 64,
    keys_per_group: int = 8,
    update_rate: float = 30.0,
    duration: float = 20.0,
    drain: float = 30.0,
    connect_window: float = 5.0,
    storm_window: float = 2.0,
    downtime_mean: float = 2.0,
    initial_credits: int = 8,
    max_queue: int = 256,
    drain_interval: float = 0.001,
    catchup_threshold: int = 100,
    trace_sample: int = 512,
    lat_client_sample: int = 16,
    seed: int = 1405,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E14 edge scale-out: sessions x churn sweep "
                   "(slot table, shared drain)",
        claim="the slot-table + shared-drain edge tier sustains 100k+ "
              "concurrent sessions in one deterministic run — ≥10x the "
              "E11 scale — with delivery p99 held at single-digit ms "
              "until the storm phase and 100% conservation attribution "
              "summed in C over the table columns",
    )
    sweep_table = result.new_table(
        "session sweep",
        ["sessions", "storm_pct", "commits", "delivered", "p50_ms",
         "p99_ms", "storm_p99_ms", "reconnects", "recover_s",
         "restale_max", "bytes_per_sess"],
    )
    scale_table = result.new_table(
        "machinery accounting",
        ["sessions", "storm_pct", "attributed_pct", "offered",
         "coalesced", "returned", "pump_runs", "pump_visits", "traced"],
    )
    tracers = {}
    result.artifacts["tracers"] = tracers

    keys = worlds.group_keys(
        [f"g{group:03d}" for group in range(num_groups)], keys_per_group
    )
    write_start = connect_window + 0.5
    storm_at = write_start + duration / 2.0

    for num_sessions, storm_fraction in rungs:
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        tracer = Tracer(sim)
        tracers[f"{num_sessions}x{storm_fraction}"] = tracer
        tracer.observe_store(store)
        source = worlds.edge_source(sim, store, tracer, "watch")
        frontend_config = EdgeFrontendConfig(
            session=SessionConfig(
                policy=SlowConsumerPolicy.COALESCE,
                max_queue=max_queue,
                initial_credits=initial_credits,
                delivery_latency=0.001,
            ),
            catchup_threshold=catchup_threshold,
            drain_interval=drain_interval,
            trace_sample=trace_sample,
            # feeds deliver values, not knowledge windows: skipping the
            # per-feed progress subscription keeps each progress tick
            # O(subscribed) instead of O(sessions)
            feed_progress=False,
        )
        frontends = [
            WatchEdgeFrontend(
                sim, f"fe{i}", source.watch, source.snapshot,
                config=frontend_config, tracer=tracer,
            )
            for i in range(num_frontends)
        ]
        placement = SessionPlacement(sim, frontends)

        times = worlds.commit_times(sim, store)
        lat_calm = []
        lat_storm = []
        sample = worlds.storm_split(
            sim, storm_at, lat_calm.append, lat_storm.append
        )
        clients = worlds.stagger_connects(sim, [
            worlds.LatencyClient(
                sim, f"{chr(ord('a') + (26 * i) // num_sessions)}{i:07d}",
                placement,
                key_range=worlds.group_range(f"g{i % num_groups:03d}"),
                service_time=0.0,
                reconnect_delay=0.3,
                commit_times=times,
                sink=sample if i % lat_client_sample == 0 else None,
            )
            for i in range(num_sessions)
        ], connect_window)

        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate,
            value_fn=lambda n: n,
        )
        sim.call_at(write_start, writer.start)
        sim.call_at(write_start + duration, writer.stop)

        # the reconnect storm: a deterministic sample of clients drops
        # inside the window and returns after an exponential holdoff
        storm = worlds.reconnect_storm(
            sim, clients, storm_fraction, storm_at, storm_window,
            downtime_mean,
        )

        sim.run(until=write_start + duration + drain)

        # ------------------------------------------------------------------
        # accounting
        commits = int(store.last_version)
        bytes_per_sess = _chain_bytes(
            frontends, clients, max(1, num_sessions // 1024)
        )
        totals, restale = worlds.fold_client_totals(clients)
        # cross-check the fold against the C-summed table columns for
        # still-attached slots (released slots zero at re-attach)
        column_offered = sum(
            fe.table.totals()["offered"] for fe in frontends
        )
        assert column_offered <= totals["offered"]

        recover_s = (
            round(max(storm.reconnect_times) - storm_at, 2)
            if storm.reconnect_times else 0.0
        )
        sweep_table.add(
            sessions=num_sessions,
            storm_pct=round(storm_fraction * 100),
            commits=commits,
            delivered=totals["delivered"],
            p50_ms=round(_percentile(lat_calm, 0.50) * 1000, 2),
            p99_ms=round(_percentile(lat_calm, 0.99) * 1000, 2),
            storm_p99_ms=round(_percentile(lat_storm, 0.99) * 1000, 2),
            reconnects=len(restale),
            recover_s=recover_s,
            restale_max=max(restale, default=0),
            bytes_per_sess=bytes_per_sess,
        )
        scale_table.add(
            sessions=num_sessions,
            storm_pct=round(storm_fraction * 100),
            attributed_pct=worlds.attributed_pct(totals),
            offered=totals["offered"],
            coalesced=totals["coalesced"],
            returned=totals["returned"],
            pump_runs=sum(fe.table.pump_runs for fe in frontends),
            pump_visits=sum(fe.table.pump_visits for fe in frontends),
            traced=len(tracer.log),
        )

    result.notes.append(
        "E11 runs 36 sessions; every rung >= 360 sessions above meets "
        "the >=10x ceiling bar while calm p99 stays in the same "
        "single-digit-ms band (the bench gate asserts this)."
    )
    result.notes.append(
        "bytes_per_sess is a deterministic sys.getsizeof estimate of "
        "one session chain (session+queue+feed+watcher+client+dicts) "
        "plus the amortized table columns; see docs/scale.md."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    rungs=((500, 0.2), (2_000, 0.2)),
    num_frontends=2,
    num_groups=16,
    update_rate=25.0,
    duration=8.0,
    drain=15.0,
    connect_window=2.0,
    storm_window=1.0,
    downtime_mean=1.0,
    trace_sample=64,
    lat_client_sample=4,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Delivery p99 stays flat while the population scales; the shared
    drain tracks work, not population."""
    sweep = result.table("session sweep")
    accounting = result.table("machinery accounting")
    # conservation: every offered update attributed, summed in C
    for row in accounting.rows:
        assert row["attributed_pct"] == 100.0, row["sessions"]
    # calm-phase delivery p99 must not grow with population
    small = sweep.rows[0]
    large = sweep.rows[-1]
    assert large["sessions"] >= 4 * small["sessions"]
    assert large["p99_ms"] <= small["p99_ms"]
    # the shared drain is O(active): every pump visit delivered, on
    # every rung (the two tables carry one row per rung, in order)
    # ... and the pump itself ran an order of magnitude fewer times
    # than it delivered, on every rung where that can hold: a commit
    # wakes sessions/(frontends*groups) sessions on each frontend, and
    # that is what one pump run amortizes over
    cell = params["num_frontends"] * params["num_groups"]
    amortized = 0
    for row, srow in zip(accounting.rows, sweep.rows):
        assert row["sessions"] == srow["sessions"]
        # drained queues hold no item array and no grown hash table;
        # the bound leaves room for the 36-session rung the edge-scale
        # gate runs, whose table columns amortize over few sessions
        assert srow["bytes_per_sess"] <= 1800, srow["sessions"]
        assert row["pump_visits"] >= srow["delivered"], row["sessions"]
        if row["sessions"] / cell >= 10:
            assert row["pump_runs"] < srow["delivered"] / 10, row["sessions"]
            amortized += 1
    assert amortized, "no rung large enough to amortize the pump"
    # the storm actually happened and recovered
    assert large["reconnects"] > 0 and large["recover_s"] > 0
