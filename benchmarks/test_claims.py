"""Every experiment's claim shape, at QUICK sizing, in one place.

Each case runs one experiment exactly once under pytest-benchmark
timing and hands the result to that module's own ``check`` — the same
assertions ``python -m repro.bench`` runs after every experiment, so a
claim is stated once (next to its ``run``) and enforced from both
entry points.
"""

import pytest

from conftest import run_once

from repro.bench import experiments
from repro.bench.runner import sizing

CASES = [
    pytest.param(experiment_id, {}, id=experiment_id)
    for experiment_id in experiments.all_ids()
]

#: rows a module's ``check`` asserts only when requested, and which the
#: QUICK sizing leaves out: (experiment id, overrides on top of QUICK)
VARIANTS = [
    # the full mitigation matrix: leases trade availability, free
    # consumers trade load, TTL trades bounded staleness
    pytest.param("E3", dict(
        configs=("pubsub-naive", "pubsub-lease", "pubsub-free",
                 "pubsub-ttl", "watch"),
        duration=60.0,
    ), id="E3-mitigations"),
    # the naive EC violations need real load: hot keys + deletes with
    # enough concurrency for same-key events to be in flight together,
    # so this variant starts from the full-size workload
    pytest.param("E4", dict(
        experiments.get("E4").DEFAULTS,
        strategies=("concurrent-naive", "partition-serial"),
        duration=30.0, drain=10.0,
    ), id="E4-naive-and-partition-serial"),
    # the replica-lag sweep DEFAULTS runs: more lag, staler snapshots
    pytest.param(
        "A4", dict(sources=("primary", "replica-0.5s", "replica-5s")),
        id="A4-replica-lag-sweep",
    ),
    # random routing: no affinity, markedly colder state cache
    pytest.param(
        "E6", dict(systems=("pubsub-random", "watch")), id="E6-random-routing",
    ),
]


def _run_and_check(benchmark, experiment_id, overrides):
    module = experiments.get(experiment_id)
    params = dict(sizing(module, quick=True), **overrides)
    result = run_once(benchmark, module.run, params)
    module.check(result, params)


@pytest.mark.parametrize("experiment_id, overrides", CASES)
def test_claim(benchmark, experiment_id, overrides):
    """The same 23 run+check pairs as ``python -m repro.bench all
    --quick``; CI runs that step and deselects this test."""
    _run_and_check(benchmark, experiment_id, overrides)


@pytest.mark.parametrize("experiment_id, overrides", VARIANTS)
def test_variant(benchmark, experiment_id, overrides):
    # not "test_claim_…": --deselect matches node ids by prefix
    _run_and_check(benchmark, experiment_id, overrides)
