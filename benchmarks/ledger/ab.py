#!/usr/bin/env python3
"""Same-host A/B: this checkout (the change) against ``<rev>`` (the parent).

    python3 benchmarks/ledger/ab.py HEAD~1
    python3 benchmarks/ledger/ab.py main --workload broker-fanout --pairs 12

Checks ``<rev>`` out into a temporary git worktree and measures both
source trees with *this* checkout's harness (identical benchmark code
and settings on both sides), in alternating parent/change pairs within
one invocation, so a ratio means code and not machine.  Per workload
and end-to-end metric it prints each side's median and quartiles, the
win count, and the verdict of the choosing-metrics guide, section 8: a
gain needs at least nine tenths of the pairs won (ties count for
neither side) *and* medians further apart than the distance between
the parent's own quartiles.  Exits 1 if any metric regressed past its
bound or the simulated results changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from run import run_child  # the sibling script: same directory, same harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

MIN_PAIRS_FOR_A_CLAIM = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """Section 8's rule, plus the benchmark's own regression bound."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gained = sign * (c_med - p_med)
    text = f"{wins}/{len(parent)} pairs won"
    if wins >= 0.9 * len(parent) and gained > p_q3 - p_q1:
        if len(parent) < MIN_PAIRS_FOR_A_CLAIM:
            return f"{text}: ahead, but a claim needs {MIN_PAIRS_FOR_A_CLAIM} pairs"
        return f"{text}: GAIN"
    if -gained > bound * p_med:
        return f"{text}: REGRESSION past the {bound:.0%} bound"
    if p_q3 - p_q1 > bound * p_med:
        return f"{text}: unresolved (parent spread wider than the bound)"
    return f"{text}: no change"


def compare(parent_src: Path, workload: str, spec, args) -> bool:
    """Run the pairs for one workload, print its rows; False if it failed."""
    sides = {"parent": parent_src, "change": ROOT / "src"}
    values: Dict[str, Dict[str, List[float]]] = {side: {} for side in sides}
    model_changed = False
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            child = run_child(
                workload, args.seed + pair, args.seconds, 0, sides[side]
            )
            digests[side] = child.digest
            for name, metric in child.result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
        model_changed |= digests["parent"] != digests["change"]
        print(f"  {workload} pair {pair + 1}/{args.pairs} done", flush=True)
    ok = not model_changed
    print(f"{workload}: sim_digest "
          + ("CHANGED (the model, not just its speed)" if model_changed
             else "equal on every pair"))
    for entry in spec["end_to_end"]:
        name = entry["name"]
        rows = {
            side: quartiles(values[side][name]) for side in ("parent", "change")
        }
        outcome = verdict(
            values["parent"][name], values["change"][name],
            entry["better"], entry["bound"],
        )
        ok &= "REGRESSION" not in outcome
        for side, (q1, med, q3) in rows.items():
            print(f"  {name:<16} {side:<6} median {med:>12.6g} {entry['unit']:<10}"
                  f" quartiles {q1:.6g} .. {q3:.6g}")
        print(f"  {name:<16} {outcome}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision to compare against")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS_FOR_A_CLAIM,
                        help="fewer than 10 can show a regression, never a gain")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, default=1405,
                        help="pair i runs both sides on seed + i")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    with tempfile.TemporaryDirectory(prefix="ledger-ab-") as scratch:
        worktree = Path(scratch) / "parent"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach",
             str(worktree), args.rev],
            check=True, stdout=subprocess.DEVNULL,
        )
        try:
            ok = True
            for workload in args.workload or names:
                ok &= compare(worktree / "src", workload, spec, args)
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force",
                 str(worktree)],
                check=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
