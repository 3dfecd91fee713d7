"""Experiments are replayable: identical params → identical tables and
byte-identical trace exports.

All randomness — retry jitter, fault schedules, loss draws, storm
timing, client stagger, frame fills, causal hold timers — comes from
the sim RNG and rides the sim clock, so one parametrized test covers
every experiment listed here (each at a sizing of a second or less).
"""

import pytest

from repro.bench import experiments

CASES = {
    # hand-built worlds (sharder handoffs, partitioned watch): one
    # pubsub config that goes permanently stale, and watch
    "E3": dict(
        configs=("pubsub-naive", "watch"),
        num_keys=30, update_rate=15.0, duration=8.0, drain=4.0,
        probe_rate=20.0, seed=43,
    ),
    "E6b": dict(num_vms=12, num_workloads=4, duration=15.0, settle=5.0, seed=79),
    "E9": dict(num_keys=20, update_rate=20.0, duration=6.0, seed=97),
    "E10": dict(
        configs=("pubsub-reliable", "watch-fireforget"),
        num_keys=25, update_rate=15.0, duration=10.0, drain=8.0, seed=31,
    ),
    "E11": dict(
        configs=("watch-disconnect", "pubsub-drop"),
        num_frontends=2, num_clients=8, num_keys=24,
        update_rate=15.0, duration=10.0, drain=20.0,
        storm_at=4.0, storm_window=1.0, downtime_mean=1.5, seed=23,
    ),
    "E12": dict(
        pipelines=("pubsub", "watch"),
        batch_sizes=(1, 16), lingers_ms=(5.0,), fanouts=(2,),
        base_batch=16, base_linger_ms=5.0, base_fanout=2,
        num_keys=32, duration=5.0, drain=5.0, seed=41,
    ),
    # includes the corrupt.inject/reconcile.repair control events in
    # the exported trace
    "E13": dict(
        num_clients=4, num_keys=24, update_rate=10.0,
        duration=10.0, settle=16.0, injections_per_class=1,
        inject_window=3.0, num_shards=2, seed=19,
    ),
    # the QUICK sweep, rung for rung
    "E14": experiments.get("E14").QUICK,
    # byte counters included
    "E15": dict(
        pipelines=("pubsub", "watch"),
        rates_rps=(50.0, 200.0), batch_sizes=(1, 8),
        fanout=2, num_keys=32, duration=4.0, drain=5.0, seed=53,
    ),
    # inversion counts included
    "E16": dict(
        pipelines=("pubsub", "watch"), modes=("fifo", "causal"),
        num_chains=6, pair_rate=25.0, duration=3.0, drain=5.0, seed=53,
    ),
}


def _rows(result):
    return [tuple(sorted(row.items())) for table in result.tables for row in table.rows]


@pytest.mark.parametrize("experiment_id", CASES)
def test_replays_identically(experiment_id):
    module = experiments.get(experiment_id)
    first = module.run(**CASES[experiment_id])
    second = module.run(**CASES[experiment_id])
    assert _rows(first) == _rows(second)
    # the causal trace is derived purely from sim-clock events, so the
    # JSONL export must replay byte for byte — the property that makes
    # exported traces diffable across runs
    tracers = first.artifacts.get("tracers", {})
    assert tracers.keys() == second.artifacts.get("tracers", {}).keys()
    for config_name, tracer in tracers.items():
        jsonl = tracer.to_jsonl()
        assert jsonl  # traced something
        assert jsonl == second.artifacts["tracers"][config_name].to_jsonl()


def test_seed_changes_outcomes():
    module = experiments.get("E6b")
    base = dict(CASES["E6b"])
    del base["seed"]
    assert _rows(module.run(seed=1, **base)) != _rows(module.run(seed=2, **base))
