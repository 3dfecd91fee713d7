"""Smoke tests: every experiment module runs end-to-end at tiny scale.

The benchmark suite runs the QUICK configurations with full assertions;
these smoke tests use even smaller parameters so the whole experiment
machinery stays covered by plain `pytest tests/`.
"""

import pytest

from repro.bench.experiments import (
    e1_fanout,
    e2b_compaction,
    e3_invalidation_race,
    e5_ingestion,
    e6b_reconcile,
    e7_snapshot_stitch,
    e8_efficiency,
    e9_quadrants,
    e10_chaos_soak,
    e11_edge_storm,
    e12_batching,
    e13_reconcile_chaos,
    e15_broker_batch_sweep,
    e16_causal_order,
)


def test_e1_smoke():
    result = e1_fanout.run(
        fanouts=(1,), num_producers=2, publish_rate=50.0,
        duration=3.0, drain=2.0,
    )
    assert all(result.table("fanout sweep").column("complete"))


def test_e2b_smoke():
    result = e2b_compaction.run(
        lag_seconds=(150.0,), compaction_window=50.0, update_rate=5.0,
        num_keys=10, duration=300.0,
    )
    rows = result.table("lag sweep").rows
    pubsub = next(r for r in rows if r["system"] == "pubsub")
    assert pubsub["transitions_missed"] > 0


def test_e3_smoke():
    result = e3_invalidation_race.run(
        configs=("pubsub-naive", "watch"), num_nodes=2, num_keys=40,
        update_rate=10.0, handoff_interval=0.5, duration=15.0, drain=8.0,
        probe_rate=20.0,
    )
    table = result.table("configurations")
    assert table.row_by("config", "watch")["perm_stale"] == 0


def test_e5_smoke():
    result = e5_ingestion.run(
        event_rate=50.0, poison_fraction=0.02, duration=8.0, drain=15.0,
        num_sensors=10,
    )
    table = result.table("pipelines")
    assert (
        table.row_by("system", "watch")["cheap_p99_s"]
        <= table.row_by("system", "pubsub")["cheap_p99_s"]
    )


def test_e6b_smoke():
    result = e6b_reconcile.run(
        num_vms=15, num_workloads=5, duration=20.0, settle=10.0,
    )
    table = result.table("coordinators")
    assert (
        table.row_by("coordinator", "watch-reconciler")["avg_satisfied"]
        >= table.row_by("coordinator", "event-driven")["avg_satisfied"]
    )


def test_e7_smoke():
    result = e7_snapshot_stitch.run(
        progress_intervals=(0.2,), num_watchers=2, num_keys=40,
        update_rate=20.0, duration=8.0, queries=40,
    )
    row = result.table("progress cadence sweep").rows[0]
    assert row["correct_stitches"]


def test_e8_smoke():
    result = e8_efficiency.run(
        num_keys=40, update_rate=20.0, duration=8.0, drain=5.0,
    )
    table = result.table("pipelines")
    assert table.row_by("system", "watch")["consumer_complete"]
    assert table.row_by("system", "pubsub")["amplification"] > 1.0


def test_e9_smoke():
    result = e9_quadrants.run(num_keys=20, update_rate=20.0, duration=8.0)
    assert all(result.table("quadrants").column("mirror_complete"))


def test_e10_smoke():
    result = e10_chaos_soak.run(
        configs=("pubsub-reliable", "pubsub-fireforget"),
        num_nodes=2, num_keys=30, update_rate=15.0,
        duration=10.0, drain=8.0, loss_rate=0.1,
        outage_mean_interval=4.0, outage_mean_duration=0.8,
        partition_duration=1.0,
    )
    table = result.table("chaos soak")
    reliable = table.row_by("config", "pubsub-reliable")
    fireforget = table.row_by("config", "pubsub-fireforget")
    # resilience metrics, surfaced through the registry, end up here
    assert reliable["retransmits"] > 0
    assert reliable["lost_updates"] == 0 and reliable["final_stale"] == 0
    assert fireforget["lost_updates"] > 0


def test_e11_smoke():
    result = e11_edge_storm.run(
        configs=("watch-coalesce", "pubsub-drop"),
        num_frontends=2, num_clients=8, num_keys=24,
        update_rate=40.0, duration=10.0, drain=30.0,
        storm_at=4.0, storm_window=1.0, downtime_mean=1.5,
    )
    provenance = result.table("delivery provenance")
    watch = provenance.row_by("config", "watch-coalesce")
    pubsub = provenance.row_by("config", "pubsub-drop")
    # conservation holds in both pipelines, but only pubsub sheds
    assert watch["attributed_pct"] == 100.0
    assert pubsub["attributed_pct"] == 100.0
    assert watch["dropped_edge"] == 0 and watch["final_stale"] == 0
    assert pubsub["dropped_edge"] > 0
    trace = result.table("trace summary")
    pubsub_trace = trace.row_by("config", "pubsub-drop")
    assert pubsub_trace["drop_provenance"] == pubsub["dropped_edge"]


def test_e12_smoke():
    result = e12_batching.run(
        pipelines=("pubsub",),
        batch_sizes=(1, 16), lingers_ms=(5.0,), fanouts=(2,),
        base_batch=16, base_linger_ms=5.0, base_fanout=2,
        num_keys=32, duration=5.0, drain=6.0, loss_rate=0.1,
    )
    table = result.table("batching sweep")
    rows = table.rows
    unbatched = next(r for r in rows if r["batch"] == 1)
    batched = next(
        r for r in rows if r["batch"] == 16 and "reliable" in r["config"]
    )
    # frames collapse and each reliable row applies the same records
    assert batched["frames"] < unbatched["frames"]
    assert batched["msgs_per_frame"] > 1.0
    assert unbatched["applied"] == batched["applied"] > 0
    # a dropped fire-and-forget frame attributes all N records
    fireforget = next(r for r in rows if "fireforget" in r["config"])
    assert fireforget["wire_lost"] == fireforget["lost_attributed"] > 0
    # byte conservation: every encoded byte put on the wire lands on
    # exactly one outcome counter (the drop funnel counts bytes once)
    for row in result.table("wire bytes").rows:
        assert row["bytes_sent"] == (
            row["bytes_delivered"] + row["bytes_dropped"]
        ), row["config"]
        assert row["bytes_per_frame"] > 0


def test_e13_smoke():
    result = e13_reconcile_chaos.run(
        num_clients=4, num_keys=24, update_rate=10.0,
        duration=10.0, settle=16.0, injections_per_class=1,
        inject_window=3.0, num_shards=2,
    )
    table = result.table("convergence")
    control = table.row_by("config", "pubsub-only")
    repaired = table.row_by("config", "pubsub+reconciler")
    # the pipelines alone never notice the corruption...
    assert not control["legal"] and control["repairs"] == 0
    # ...the reconciler returns the system to a legal state, every
    # repair attributed to the injection it fixed
    assert repaired["legal"]
    assert repaired["attributed"] == repaired["repairs"] > 0
    classes = result.table("corruption classes")
    for row in classes.rows:
        if row["config"] == "pubsub+reconciler":
            assert row["unrepaired"] == 0
        else:
            assert row["repaired"] == 0


def test_e15_smoke():
    result = e15_broker_batch_sweep.run(
        pipelines=("pubsub", "watch"),
        rates_rps=(50.0, 250.0), batch_sizes=(1, 8),
        fanout=2, num_keys=32, duration=4.0, drain=6.0,
    )
    table = result.table("batch sweep")
    # the full (pipeline, rate, batch) grid is present
    assert len(table.rows) == 2 * 2 * 2
    pubsub = [r for r in table.rows if r["config"] == "pubsub"]
    hot = [r for r in pubsub if r["rate_rps"] == 250.0]
    unbatched = next(r for r in hot if r["batch"] == 1)
    batched = next(r for r in hot if r["batch"] == 8)
    # the saturation knee: past the dispatch-bound rate the unbatched
    # cell queues (latency explodes), the batched cell keeps up
    assert unbatched["e2e_p50_ms"] > 4 * batched["e2e_p50_ms"]
    assert batched["applied"] == unbatched["applied"] > 0
    # batching amortizes the wire: fuller, bigger frames
    assert batched["frames"] < unbatched["frames"]
    assert batched["msgs_per_frame"] > 1.0
    assert batched["bytes_per_frame"] > unbatched["bytes_per_frame"]


def test_e16_smoke():
    result = e16_causal_order.run(
        pipelines=("pubsub", "watch"), modes=("fifo", "causal"),
        num_chains=6, pair_rate=25.0, duration=3.0, drain=5.0,
    )
    table = result.table("fifo vs causal")
    assert len(table.rows) == 4
    for system in ("pubsub", "watch"):
        rows = [r for r in table.rows if r["config"] == system]
        fifo = next(r for r in rows if r["mode"] == "fifo")
        causal = next(r for r in rows if r["mode"] == "causal")
        # FIFO exhibits the cross-key violation; the causal tier
        # eliminates it without losing a single delivery (it can apply
        # *more*: causal sessions disable per-key supersession, so
        # updates a fifo session would coalesce away are delivered)
        assert fifo["inversions"] > 0
        assert causal["inversions"] == 0
        assert causal["applied"] >= fifo["applied"] > 0
        assert causal["held"] > 0
        # the in-band stamps are real wire bytes
        assert causal["bytes_per_msg"] > fifo["bytes_per_msg"]
        assert causal["meta_bytes_per_msg"] > 0
    # the gate table is recomputed from causal.* trace hops and must
    # agree with the live buffer counters
    gate = result.table("causal gate (TraceIndex.causal_summary)")
    for row in gate.rows:
        causal = next(
            r for r in table.rows
            if r["config"] == row["config"] and r["mode"] == "causal"
        )
        assert row["held"] == causal["held"]
        assert row["released_deadline"] == causal["released_deadline"]
