"""Smoke test of the ledger harness at 2% scale.

Run explicitly (it is not in the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import attribution  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SCALE = 0.02
SEED = 7
#: "wall_us_per_delivered" is delivered_per_s printed the other way up
DERIVED = {"wall_us_per_delivered"}


def measure(workload: str, trace: bool) -> run.Report:
    return run.measure(workload, SEED, seconds=0.0, reps=1, trace=trace, scale=SCALE)


@pytest.fixture(scope="module")
def traced():
    return {name: measure(name, trace=True) for name in WORKLOADS}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_once_with_its_unit(workload, trace, capsys, tmp_path):
    code = run.main([
        "--workload", workload, "--seed", str(SEED), "--scale", str(SCALE),
        "--reps", "1", "--trace", str(trace),
        "--trace-out", str(tmp_path / "trace.json"),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    for name in units:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    printed = Counter(
        match.group(1) for line in lines
        if (match := re.match(r"^  (\S+)\s+\S+ \S+$", line))
    )
    assert set(printed) - DERIVED == set(units)
    assert set(printed.values()) == {1}
    artifact = json.loads((tmp_path / "trace.json").read_text())
    names = {span["name"] for span in artifact["spans"]}
    assert {"build_world", "run", "drain", "verify"} <= names
    assert all(span["end"] >= span["start"] for span in artifact["spans"])


def test_self_shares_sum_to_one(traced):
    for report in traced.values():
        total = sum(
            value for name, value in report.metrics.items()
            if name.endswith(".self_share")
        )
        assert total == pytest.approx(1.0, abs=0.01)


def test_layers_idle_where_the_issue_says_so(traced):
    for name in ("broker-fanout", "watch-edge-storm"):
        assert traced[name].metrics["sim.wire.self_share"] == 0
        assert traced[name].metrics["sim.wire.calls_per_delivered"] == 0
    assert traced["broker-fanout"].metrics["edge.self_share"] == 0
    assert traced["repl-net-unbatched"].metrics["resilience.retransmits"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digest_repeat_exactly(workload, traced):
    first = traced[workload]
    again = measure(workload, trace=True)
    untraced = measure(workload, trace=False)
    # every repetition — plain, gc-watched, cProfile'd, kernel-hooked,
    # Tracer-attached — reproduced one digest: tracing is passive
    assert first.correct and again.correct and untraced.correct
    assert first.digest == again.digest == untraced.digest
    exact = [name for name in first.metrics if run.is_exact(name)]
    assert len(exact) > 30
    for name in exact:
        assert first.metrics[name] == again.metrics[name], name


def test_exact_names_are_named_metrics():
    named = {entry["name"] for entry in SPEC["per_layer"]}
    assert run.EXACT_NAMES <= named


def test_unmapped_module_is_an_error():
    assert attribution.layer_of("pubsub/log.py") == "pubsub"
    assert attribution.layer_of("sim/timerwheel.py") == "sim.kernel"
    with pytest.raises(attribution.UnmappedModule):
        attribution.layer_of("brand_new_pkg/hot_path.py")
    with pytest.raises(attribution.UnmappedModule):
        attribution.layer_of("sim/brand_new.py")
    src = ROOT / "src"
    stats = {
        (str(src / "repro" / "brand_new_pkg" / "hot.py"), 1, "f"):
            (1, 1, 0.5, 0.5, {}),
    }
    with pytest.raises(attribution.UnmappedModule):
        attribution.layer_table(stats, src, HERE)


def test_every_source_file_is_placed_or_known_unreached():
    """The layer map covers all of ``src/repro`` except the packages no
    workload enters; the cProfile repetition raises on those if a
    workload ever starts reaching one."""
    unreached = {
        "bench", "cache", "causal", "fleet", "reconcile", "workqueue",
        "__init__", "sim/failures", "sim/__init__",
    }
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(ROOT / "src" / "repro").as_posix()
        try:
            attribution.layer_of(relative)
        except attribution.UnmappedModule:
            stem = relative[:-3]
            assert stem in unreached or stem.split("/")[0] in unreached, relative


def _drop_nth(monkeypatch, cls, method: str, nth: int) -> None:
    original = getattr(cls, method)
    calls = [0]

    def lossy(self, *args, **kwargs):
        calls[0] += 1
        if calls[0] == nth:
            return None
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, lossy)


def test_lost_broker_delivery_fails_the_run(monkeypatch, capsys):
    from repro.pubsub.consumer import Consumer

    _drop_nth(monkeypatch, Consumer, "deliver", 50)
    code = run.main([
        "--workload", "broker-fanout", "--seed", str(SEED),
        "--scale", str(SCALE), "--reps", "1", "--trace", "0",
    ])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["failed"] > 0 and result["correct"] is False


def test_lost_replica_apply_fails_the_run(monkeypatch, capsys):
    from repro.replication.target import ReplicaStore

    _drop_nth(monkeypatch, ReplicaStore, "_write", 50)
    code = run.main([
        "--workload", "repl-net-batched", "--seed", str(SEED),
        "--scale", str(SCALE), "--reps", "1", "--trace", "0",
    ])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["failed"] > 0 and result["correct"] is False
