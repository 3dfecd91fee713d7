"""The zero-noise counter gate: every exact ledger counter, pinned.

The ledger's exact metrics (``run.is_exact``: the per-layer
``calls_per_delivered`` counts, ``events_per_delivered`` and the
``EXACT_NAMES`` set) are pure functions of the code and the seed, so a
change that adds a call on a hot path moves one of them on any host.
``counters.json`` holds every one of them for all four ledger
workloads at seed 1405 and 10% scale, keyed by CPython minor version
(call counts are interpreter-specific).  This test measures them again
and fails on any difference, naming the workload, the metric, and the
old and new values.  A change that moves a counter on purpose
regenerates the file and says in CHANGES.md which counters moved and
why::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/test_counters.py

Run the gate itself with::

    PYTHONHASHSEED=0 PYTHONPATH=src:benchmarks python -m pytest benchmarks/test_counters.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "ledger")]

import run  # noqa: E402

COUNTERS = HERE / "counters.json"
SEED = 1405
SCALE = 0.1
WORKLOADS = [entry["name"] for entry in run.load_spec()["workloads"]]
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def exact_counters(workload: str) -> dict:
    report = run.measure(workload, SEED, seconds=0.0, reps=1, trace=True, scale=SCALE)
    assert report.correct, f"{workload}: lost deliveries or digests disagree"
    return {
        name: value for name, value in sorted(report.metrics.items())
        if run.is_exact(name)
    }


def _pinned() -> dict:
    return json.loads(COUNTERS.read_text()) if COUNTERS.exists() else {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_match_the_committed_baseline(workload):
    pinned = _pinned().get(PYTHON)
    if pinned is None:
        pytest.skip(
            f"counters.json has no baseline for CPython {PYTHON}; "
            "generate one with: python benchmarks/test_counters.py"
        )
    old = pinned[workload]
    new = exact_counters(workload)
    changed = [
        f"{workload} {name}: {old.get(name)!r} -> {new.get(name)!r}"
        for name in sorted(set(old) | set(new))
        if old.get(name) != new.get(name)
    ]
    assert not changed, "exact counters moved:\n" + "\n".join(changed)


def main() -> None:
    """Rewrite this interpreter's entry of counters.json."""
    pinned = _pinned()
    pinned[PYTHON] = {workload: exact_counters(workload) for workload in WORKLOADS}
    COUNTERS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {COUNTERS.name} [{PYTHON}]: {len(WORKLOADS)} workloads")


if __name__ == "__main__":
    main()
