"""The experiment driver: run, render, and check every claim.

Usage::

    python -m repro.bench                    # list experiments
    python -m repro.bench E3                 # run E3 at DEFAULTS sizing
    python -m repro.bench E3 E17 --quick     # a subset at QUICK sizing
    python -m repro.bench all --jobs 2 > experiments_output.txt

Every experiment's ``check(result, params)`` runs right after its
``run(**params)``: the claim-shape assertions are part of the sweep, not
a separate pass.  A failing experiment — ``run`` raised or ``check``
asserted — does not abort the sweep: its traceback is printed in place,
the remaining experiments still run, and the driver exits nonzero with
a per-experiment summary so CI catches the breakage.

``--jobs N`` runs experiments across N worker processes (the fleet's
:func:`repro.fleet.process_map`).  Each worker captures its experiment's
entire stdout (tables, notes, trace-export lines) into a buffer; the
parent prints the buffers in registry order — so the output is
**byte-identical to a sequential run** apart from the wall-time lines,
which measure real elapsed time and are suppressed entirely under
``--omit-timings`` (use that flag when diffing two runs).  An experiment
that itself shards across processes (E17) detects it is inside a worker
and runs its shards inline — same results by the fleet's determinism
contract.

With ``--trace-dir DIR``, experiments that produce causal traces
(``result.artifacts["tracers"]``) also export one deterministic JSONL
file per configuration into DIR; see ``scripts/trace_report.py`` for
rendered reports.  Exports happen inside the worker, so ``--jobs`` runs
produce the same files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
import traceback

from repro.bench import experiments
from repro.bench.runner import sizing
from repro.fleet import process_map


def _export_traces(trace_dir: str, experiment_id: str, result) -> None:
    tracers = result.artifacts.get("tracers")
    if not tracers:
        return
    os.makedirs(trace_dir, exist_ok=True)
    for name, tracer in tracers.items():
        path = os.path.join(trace_dir, f"{experiment_id}-{name}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(tracer.to_jsonl())
        print(f"(trace exported: {path}, {len(tracer.log)} events)")


def _run_one(task):
    """Worker: run and check one experiment, capturing stdout verbatim.

    Returns ``(experiment_id, ok, captured_text, wall_seconds)``.
    Module-level so it pickles by reference into ``--jobs`` workers.
    """
    experiment_id, quick, trace_dir = task
    buffer = io.StringIO()
    started = time.time()
    ok = True
    with contextlib.redirect_stdout(buffer):
        try:
            module = experiments.get(experiment_id)
            params = sizing(module, quick)
            result = module.run(**params)
            print(result.render())
            if trace_dir:
                _export_traces(trace_dir, experiment_id, result)
            module.check(result, params)
        except Exception:
            ok = False
            print(f"!!! {experiment_id} FAILED")
            print(traceback.format_exc())
    return experiment_id, ok, buffer.getvalue(), time.time() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run and check the paper-reproduction experiments "
                    "(E1-E17, A1-A4).",
    )
    parser.add_argument(
        "ids", nargs="*", metavar="ID",
        help="experiment ids (e.g. E3 E17), run in registry order, "
             "or 'all'; omit to list",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="apply each experiment's QUICK (CI-sized) overrides",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run experiments across N worker processes (default 1); "
             "deterministic output is identical to a sequential run",
    )
    parser.add_argument(
        "--omit-timings", action="store_true",
        help="suppress the nondeterministic wall-time lines so two "
             "runs (any --jobs) diff byte-identically",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="D",
        help="export per-configuration trace JSONL from traced experiments",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if not __debug__:
        # every check() is made of assert statements, which -O strips:
        # the sweep would report "ok" without having checked anything
        parser.error("claim checks are assert statements; run without -O")

    known = experiments.all_ids()
    if not args.ids:
        print("available experiments:")
        for experiment_id in known:
            module = experiments.get(experiment_id)
            first_line = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {experiment_id:4s} {first_line}")
        return 0
    if "all" in args.ids:
        ids = known
    else:
        unknown = [token for token in args.ids if token not in known]
        if unknown:
            print(
                f"unknown experiment id(s): {', '.join(unknown)} "
                f"(known: {', '.join(known)})",
                file=sys.stderr,
            )
            return 2
        ids = [
            experiment_id for experiment_id in known
            if experiment_id in args.ids
        ]

    outcomes = process_map(
        _run_one,
        [(experiment_id, args.quick, args.trace_dir) for experiment_id in ids],
        jobs=args.jobs,
    )

    for _experiment_id, _ok, text, wall in outcomes:
        sys.stdout.write(text)
        if not args.omit_timings:
            print(f"(wall time: {wall:.1f}s)")
        print()
        print("=" * 72)
        print()

    print("summary")
    print("-------")
    for experiment_id, ok, _text, wall in outcomes:
        status = "ok" if ok else "FAILED"
        if args.omit_timings:
            print(f"{experiment_id:5s} {status:6s}")
        else:
            print(f"{experiment_id:5s} {status:6s} {wall:6.1f}s")
    failed = [experiment_id for experiment_id, ok, _, _ in outcomes if not ok]
    if failed:
        print(
            f"\n{len(failed)} experiment(s) failed: " + ", ".join(failed),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
