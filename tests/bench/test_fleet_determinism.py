"""The fleet determinism gate (ISSUE satellite): a 4-shard fleet's
merged report is byte-identical across invocations and across jobs
counts, and equals — counter for counter — the single-process run
partitioned by the same shard function.

Real simulation shards (E17's worker) at tiny sizing, not synthetic
workers: this is the suite that makes the "jobs=1 == jobs=N" note in
E17's output an enforced fact rather than a claim.
"""

from __future__ import annotations

import json

from repro.bench.experiments import e17_fleet_scale
from repro.fleet import FleetRunner

#: tiny but real: storms, snapshots, retention holes all exercised
_PARAMS = dict(
    pipeline="pubsub",
    storm="snapshot",
    sessions_per_shard=60,
    groups_per_shard=2,       # 8 total groups / 4 shards
    rate=16.0 / 4,            # 16 total updates/s split across 4 shards
    keys_per_group=4,
    duration=4.0,
    drain=6.0,
    connect_window=1.5,
    storm_fraction=0.3,
    storm_window=1.0,
    downtime_mean=1.0,
    initial_credits=8,
    max_queue=64,
    drain_interval=0.001,
    delta_threshold=10_000,
    snapshot_threshold=8,
    retention_messages=6,
    lat_client_sample=4,
    trace_sample=16,
)


def _fleet(jobs):
    runner = FleetRunner(
        e17_fleet_scale.run_shard, num_shards=4, run_seed=1701, jobs=jobs,
    )
    report = runner.run(dict(_PARAMS))
    report.check_conservation(e17_fleet_scale._funnels("pubsub", report))
    return report


def test_four_shard_fleet_is_byte_identical_across_everything():
    single = _fleet(jobs=1)       # the single-process partitioned run
    wide = _fleet(jobs=4)         # 4 worker processes
    again = _fleet(jobs=4)        # second invocation, same jobs

    # byte identity of the full determinism surface
    assert single.to_json() == wide.to_json() == again.to_json()
    assert single.trace_jsonl() == wide.trace_jsonl() == again.trace_jsonl()

    # counter-for-counter equality, merged and per shard
    assert single.counters == wide.counters
    for mono_shard, fleet_shard in zip(single.shards, wide.shards):
        assert mono_shard.counters == fleet_shard.counters
        for name, hist in mono_shard.hists.items():
            other = fleet_shard.hists[name]
            assert hist.counts == other.counts and hist.count == other.count
            assert hist.overflow == other.overflow and hist.edges == other.edges

    # the run did real work: storm reconnects replayed through a real
    # retention floor and sessions balanced anyway
    assert single.counters["sess.offered"] > 0
    assert single.counters["edge.replayed"] > 0
    assert single.counters["edge.reconnects"] > 0
    # merged trace is valid JSONL, namespaced by shard
    lines = single.trace_jsonl().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_watch_shard_replays_identically_inline():
    params = dict(_PARAMS, pipeline="watch", snapshot_threshold=8)
    runner = FleetRunner(
        e17_fleet_scale.run_shard, num_shards=2, run_seed=77, jobs=1,
    )
    a = runner.run(dict(params))
    b = runner.run(dict(params))
    a.check_conservation(e17_fleet_scale._funnels("watch", a))
    assert a.to_json() == b.to_json()
    assert a.counters["edge.snapshots"] > 0


def test_e17_smoke_tiny():
    """The whole E17 harness (sweep + timing + speedup tables) runs at
    toy sizing and its deterministic tables replay identically."""
    params = dict(
        rungs=(
            ("watch", 1, 100, "snapshot", 1),
            ("pubsub", 1, 80, "snapshot", 1),
            ("pubsub", 2, 40, "snapshot", 2),
        ),
        total_groups=8,
        keys_per_group=4,
        update_rate=16.0,
        duration=4.0,
        drain=6.0,
        connect_window=1.5,
        storm_fraction=0.3,
        storm_window=1.0,
        downtime_mean=1.0,
        snapshot_threshold=8,
        retention_messages=6,
        lat_client_sample=4,
        trace_sample=16,
        seed=1701,
    )
    result = e17_fleet_scale.run(**params)
    sweep = result.table("fleet sweep")
    assert [row["conserved"] for row in sweep.rows] == [True] * 3
    assert all(row["attributed_pct"] == 100.0 for row in sweep.rows)
    mono = sweep.row_by("shards", 1)  # first monolith row (watch)
    assert mono["snapshots"] > 0
    pubsub_rows = [r for r in sweep.rows if r["config"] == "pubsub-snapshot"]
    assert all(row["replayed"] > 0 for row in pubsub_rows)
    # same total population on both sides of the speedup pair
    pair_table = result.table(
        "speedup vs 1-process monolith (nondeterministic; excluded "
        "from determinism gates)"
    )
    assert [row["sessions"] for row in pair_table.rows] == [80]

    # deterministic tables replay identically (timing tables excluded)
    def deterministic_rows(res):
        return [
            tuple(sorted(row.items()))
            for table in res.tables
            if "nondeterministic" not in table.title
            for row in table.rows
        ]

    again = e17_fleet_scale.run(**params)
    assert deterministic_rows(result) == deterministic_rows(again)
