#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name and unit.

    python3 benchmarks/ledger/run.py                      # all workloads
    python3 benchmarks/ledger/run.py --workload broker-fanout --trace 1
    python3 benchmarks/ledger/run.py --repeat-sets 2      # noise report

With ``--workload`` the process measures that workload alone (one
workload per process, so ``peak_rss_mb`` is its own) and ends its
standard output with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Without it, every workload
runs in a child process of its own, one after another, in both modes.

Two clocks: *host* numbers are ``time.perf_counter`` wall of this
process; *sim* numbers come off the simulated clock and repeat exactly
for a fixed seed.  README.md names every metric and what should move it.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: repetitions never drop below this, whatever ``--seconds`` says
MIN_REPS = 5
#: share of ``--seconds`` a traced run spends on its untraced baseline
BASELINE_SHARE = 0.25
#: sim-time slices the load is driven in; the host pace is sampled
#: between slices (pace.py)
SLICES = 16

#: per-layer metrics that are pure functions of (code, seed): a change
#: meant only to speed the simulator must leave every one bit-equal
EXACT_SUFFIXES = ("calls_per_delivered", "events_per_delivered")
EXACT_NAMES = frozenset((
    "sim.p50_ms", "sim.p99_ms", "sim.latency_samples",
    "sim.network.frames_per_delivered", "sim.network.bytes_per_delivered",
    "transport.payload_msgs_per_frame", "resilience.acks_per_frame",
    "resilience.retransmits", "pubsub.redeliveries",
    "edge.pump_visits_per_delivered", "edge.pump_runs",
    "edge.coalesced_share", "edge.reconnects",
    "edge.snapshot_reconnect_share", "obs.trace_bytes_per_delivered",
))


def is_exact(name: str) -> bool:
    return name in EXACT_NAMES or name.endswith(EXACT_SUFFIXES)


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# one repetition


@dataclass
class Rep:
    """One repetition's host walls plus its (exactly repeating) outcome.

    ``setup_s`` and ``slices`` are pace-corrected (see pace.py);
    ``raw_wall_s`` is what the clock said.
    """

    setup_s: float
    #: corrected wall of each load slice, then of the drain
    slices: List[float]
    raw_wall_s: float
    slowdown: float
    attempted: int
    delivered: int
    failed: int
    digest: str
    counters: Dict[str, int]
    p50_ms: float
    p99_ms: float
    alloc_blocks: int
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.slices)


def steady_wall(reps: List["Rep"]) -> float:
    """Corrected wall of the timed section over several repetitions.

    Slice *j* does the same simulated work in every repetition, so its
    wall is taken as the median over the repetitions, and the section's
    wall as the sum over slices: one disturbed slice spoils one sample
    of one slice, not a whole repetition.  (On the reference box this
    halved the run-to-run spread against the median of totals.)
    """
    return sum(
        statistics.median(column) for column in zip(*(rep.slices for rep in reps))
    )


def repetition(cls, seed, scale, spans, rep_id, instrument=None, src=None) -> Rep:
    """Build, run, drain and verify one world.

    ``instrument`` attaches exactly one passive observer to the timed
    section: ``"gc"``, ``"cprofile"``, ``"hook"`` or ``"tracer"``.  The
    load is driven in ``SLICES`` sim-time slices so the host pace is
    sampled every few hundred milliseconds of wall.
    """
    from attribution import GcWatch, KernelHook, layer_table
    from pace import HostPace

    tracer_cls = None
    if instrument == "tracer":
        from repro.obs import Tracer as tracer_cls

    gc.collect()
    spans.repetition = rep_id
    pace = HostPace()
    with spans.span("build_world"):
        world, _, setup_s = pace.timed(lambda: cls(seed, scale, tracer_cls))
    # start the timed section from one collector state — everything
    # built so far old, nothing young — whatever ran before: left as
    # found, where the full collections fall (and ±12% of the wall on
    # watch-edge-storm) depended on the process's allocation history
    gc.collect()
    drive = world.advance
    observer = None
    if instrument == "gc":
        observer = GcWatch()
        observer.start()
    elif instrument == "hook":
        observer = world.sim.profiler = KernelHook()
    elif instrument == "cprofile":
        observer = cProfile.Profile()

        def drive(until: float) -> None:
            # profile the slices only: the reference chunk between them
            # must run at its unprofiled pace
            observer.enable()
            world.advance(until)
            observer.disable()

    blocks = sys.getallocatedblocks()
    raw_wall = 0.0
    slices: List[float] = []
    checkpoints = [world.load_end * (i + 1) / SLICES for i in range(SLICES)]
    with spans.span("run"):
        for until in checkpoints:
            _, raw, corrected = pace.timed(lambda: drive(until))
            raw_wall += raw
            slices.append(corrected)
    with spans.span("drain"):
        _, raw, corrected = pace.timed(lambda: drive(world.horizon))
        raw_wall += raw
        slices.append(corrected)
    blocks = sys.getallocatedblocks() - blocks
    extra: Dict[str, object] = {}
    if instrument == "gc":
        observer.stop()
        extra = {"gc_s": observer.seconds, "gc_gen2": observer.gen2}
    elif instrument == "hook":
        extra = {"events": observer.total_events, "components": observer.table()}
    elif instrument == "cprofile":
        observer.create_stats()
        extra = {"layers": layer_table(observer.stats, src, HERE)}
    with spans.span("verify"):
        outcome = world.outcome()
        if instrument == "tracer":
            log = world.tracer.log
            extra = {
                "trace_events": log.appended,
                "trace_bytes": sum(len(event.to_json()) + 1 for event in log),
            }
        p50_ms, p99_ms = outcome.percentiles_ms(0.50, 0.99)
        return Rep(
            setup_s=setup_s,
            slices=slices,
            raw_wall_s=raw_wall,
            slowdown=statistics.median(pace.samples),
            attempted=outcome.attempted,
            delivered=outcome.delivered,
            failed=outcome.failed,
            digest=outcome.digest(),
            counters=outcome.counters,
            p50_ms=p50_ms,
            p99_ms=p99_ms,
            alloc_blocks=blocks,
            extra=extra,
        )


# ----------------------------------------------------------------------
# one workload, in this process


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    #: the repetitions no instrument touched beyond the gc callback
    untraced: List[Rep]
    #: every repetition, warm-up and instrumented ones included
    reps: List[Rep]
    metrics: Dict[str, float]
    artifact: Dict[str, object]

    @property
    def digest(self) -> str:
        return self.reps[0].digest

    @property
    def attempted(self) -> int:
        return sum(rep.attempted for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.reps)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(
            rep.digest == self.digest for rep in self.reps
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timed_reps(one_rep, seconds, reps, instrument, floor):
    """Repetitions until ``seconds`` have passed (at least ``floor``),
    or exactly ``reps`` of them when given."""
    done: List[Rep] = []
    began = time.perf_counter()

    def more() -> bool:
        if reps is not None:
            return len(done) < reps
        return len(done) < floor or time.perf_counter() - began < seconds

    while more():
        done.append(one_rep(f"timed-{len(done)}", instrument))
    return done


def measure(
    workload: str,
    seed: int,
    seconds: float,
    reps: Optional[int] = None,
    trace: bool = False,
    scale: float = 1.0,
    src: Path = ROOT / "src",
) -> Report:
    """Run one workload here and now; returns every metric of the mode."""
    from attribution import Spans
    from worlds import WORKLOADS

    cls = WORKLOADS[workload]
    spans = Spans()

    def one_rep(rep_id: str, instrument: Optional[str] = None) -> Rep:
        return repetition(cls, seed, scale, spans, rep_id, instrument, src)

    # untimed warm-up: lazy imports finish and the kernel's module-level
    # entry slab fills, as they would in any process that runs twice
    reps_all = [one_rep("warm-up")]
    tables: Dict[str, object] = {}
    if not trace:
        untraced = _timed_reps(one_rep, seconds, reps, None, MIN_REPS)
        reps_all += untraced
        metrics = {
            "setup_s": statistics.median(rep.setup_s for rep in untraced),
            "delivered_per_s": untraced[0].delivered / steady_wall(untraced),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        untraced = _timed_reps(
            one_rep, seconds * BASELINE_SHARE, reps, "gc", 2
        )
        profiled = one_rep("cprofile", "cprofile")
        hooked = one_rep("kernel-hook", "hook")
        traced = one_rep("tracer", "tracer")
        reps_all += untraced + [profiled, hooked, traced]
        metrics = _per_layer_metrics(untraced, profiled, hooked, traced, spans)
        tables = {
            "layers": profiled.extra["layers"],
            "kernel_components": hooked.extra["components"],
            "trace_events": traced.extra["trace_events"],
        }
    artifact = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "clock": "spans: raw time.perf_counter seconds, process-relative; "
                 "setup_s/wall_s: pace-corrected seconds (pace.py)",
        "spans": spans.records,
        "repetitions": [
            {
                "setup_s": rep.setup_s, "wall_s": rep.wall_s,
                "raw_wall_s": rep.raw_wall_s, "slowdown": rep.slowdown,
                "delivered": rep.delivered, "attempted": rep.attempted,
                "failed": rep.failed, "sim_digest": rep.digest,
                "counters": rep.counters,
            }
            for rep in reps_all
        ],
        **tables,
    }
    return Report(workload, seed, trace, untraced, reps_all, metrics, artifact)


def _per_layer_metrics(untraced, profiled, hooked, traced, spans) -> Dict[str, float]:
    from attribution import LAYERS
    from drills import DRILLS

    wall = steady_wall(untraced)
    first = untraced[0]
    delivered = first.delivered
    counters = first.counters
    layers = profiled.extra["layers"]
    total_self = sum(row["self_s"] for row in layers.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(layers[layer]["self_s"], total_self)
        metrics[f"{layer}.calls_per_delivered"] = _ratio(
            layers[layer]["calls"], delivered
        )
    metrics.update({
        "trace.overhead_ratio": profiled.wall_s / wall,
        "sim.kernel.events_per_delivered":
            _ratio(hooked.extra["events"], delivered),
        "sim.kernel.events_per_s": hooked.extra["events"] / wall,
        "trace.hook_overhead_ratio": hooked.wall_s / wall,
        "sim.p50_ms": first.p50_ms,
        "sim.p99_ms": first.p99_ms,
        "sim.latency_samples": delivered,
        "sim.network.frames_per_delivered":
            _ratio(counters["net_frames"], delivered),
        "sim.network.bytes_per_delivered":
            _ratio(counters["net_bytes"], delivered),
        "transport.payload_msgs_per_frame":
            _ratio(counters["net_payload_msgs"], counters["net_frames"]),
        "resilience.acks_per_frame":
            _ratio(counters["channel_acked"], counters["channel_transmits"]),
        "resilience.retransmits": counters["channel_retransmits"],
        "pubsub.redeliveries": counters["pubsub_redeliveries"],
        "edge.pump_visits_per_delivered":
            _ratio(counters["edge_pump_visits"], delivered),
        "edge.pump_runs": counters["edge_pump_runs"],
        "edge.coalesced_share":
            _ratio(counters["edge_coalesced"], counters["edge_offered"]),
        "edge.reconnects": counters["edge_reconnects"],
        "edge.snapshot_reconnect_share": _ratio(
            counters["edge_snapshot_reconnects"], counters["edge_reconnects"]
        ),
        "host.gc_share": statistics.median(
            rep.extra["gc_s"] / rep.raw_wall_s for rep in untraced
        ),
        "host.gc_gen2_collections": statistics.median(
            rep.extra["gc_gen2"] for rep in untraced
        ),
        "host.alloc_blocks_per_delivered": _ratio(
            statistics.median(rep.alloc_blocks for rep in untraced), delivered
        ),
        "host.slowdown": statistics.median(rep.slowdown for rep in untraced),
        "host.raw_delivered_per_s": delivered / statistics.median(
            rep.raw_wall_s for rep in untraced
        ),
        "obs.tracer_wall_ratio": traced.wall_s / wall,
        "obs.trace_bytes_per_delivered":
            _ratio(traced.extra["trace_bytes"], delivered),
    })
    spans.repetition = "drills"
    for name, drill in DRILLS.items():
        with spans.span(name):
            metrics[name] = drill()
    return metrics


def run_single(args, spec) -> int:
    """The ``--workload`` form: measure, print, end with the result JSON."""
    report = measure(
        args.workload, args.seed, args.seconds, args.reps, bool(args.trace),
        args.scale, Path(args.src).resolve(),
    )
    section = "per_layer" if report.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    if set(units) != set(report.metrics):
        odd = sorted(set(units) ^ set(report.metrics))
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {odd}")
    walls = [rep.wall_s for rep in report.untraced]
    q1, q2, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"workload {report.workload}  seed {report.seed}  "
          f"scale {args.scale}  trace {int(report.trace)}")
    print(f"untraced repetitions N={len(walls)}  "
          f"wall_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f}")
    for name, value in report.metrics.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")
    if not report.trace:
        per_s = report.metrics["delivered_per_s"]
        print(f"  {'wall_us_per_delivered':<42} {1e6 / per_s:>16.6g} us")
    print(f"sim_digest {report.digest}  ops_attempted {report.attempted}  "
          f"ops_failed {report.failed}  latency_samples {report.reps[0].delivered}")
    out = args.trace_out
    if out is None and report.trace:
        out = HERE / "out" / f"trace-{report.workload}-seed{report.seed}.json"
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.artifact, indent=1))
        print(f"trace artifact {out}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


# ----------------------------------------------------------------------
# every workload, each in a child process


@dataclass
class ChildResult:
    result: Dict[str, object]
    digest: str


def run_child(
    workload, seed, seconds, trace, src, scale=1.0, reps=None, echo=False
) -> ChildResult:
    """Measure one workload in a process of its own (also used by ab.py)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale), "--src", str(src),
    ]
    if reps is not None:
        command += ["--reps", str(reps)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
    digest = re.search(r"^sim_digest (\w+)", done.stdout, re.M).group(1)
    return ChildResult(json.loads(done.stdout.splitlines()[-1]), digest)


def run_all(args, spec) -> int:
    """Every workload, both modes, ``--repeat-sets`` times; then the
    noise report when there is more than one set."""
    names = [entry["name"] for entry in spec["workloads"]]
    modes = (0, 1) if args.trace is None else (args.trace,)
    sets = [
        {(name, trace): run_child(
            name, args.seed, args.seconds, trace, args.src, args.scale,
            args.reps, echo=True,
        ) for name in names for trace in modes}
        for _ in range(args.repeat_sets)
    ]
    if args.repeat_sets < 2:
        return 0
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    print(f"\nnoise report over {args.repeat_sets} sets "
          "(relative spread between set values vs bound)")
    bad = 0
    for key in sets[0]:
        name, trace = key
        if len({one[key].digest for one in sets}) != 1:
            print(f"  {name}: sim_digest DIFFERS between sets")
            bad += 1
        for metric in sets[0][key].result["metrics"]:
            values = [one[key].result["metrics"][metric]["value"] for one in sets]
            if metric in bounds:
                spread = (max(values) - min(values)) / statistics.median(values)
                verdict = "ok" if spread <= bounds[metric] else "EXCEEDS"
                bad += verdict != "ok"
                print(f"  {name:<20} {metric:<18} spread {spread:7.2%}  "
                      f"bound {bounds[metric]:.0%}  {verdict}")
            elif is_exact(metric) and len(set(values)) != 1:
                print(f"  {name:<20} {metric} NOT EXACT: {values}")
                bad += 1
    print("noise report:", "all within bounds" if not bad else f"{bad} violations")
    return 1 if bad else 0


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [entry["name"] for entry in spec["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="measure this workload in this process")
    parser.add_argument("--seed", type=int, default=1405)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of the timed repetitions")
    parser.add_argument("--reps", type=int,
                        help="exactly this many timed repetitions instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply workload sizes (smoke tests only)")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to import repro from (ab.py)")
    parser.add_argument("--trace-out", help="where to write the trace artifact")
    parser.add_argument("--repeat-sets", type=int, default=1,
                        help="run everything K times and report the noise")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    src = Path(args.src).resolve()
    if not (src / "repro").is_dir():
        raise SystemExit(f"no repro package under {src}: nothing to measure")
    sys.path[:0] = [str(src), str(HERE)]
    if args.workload is not None:
        return run_single(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order must not vary from run to run
        os.execve(
            sys.executable, [sys.executable] + sys.argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
