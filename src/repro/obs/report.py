"""Trace report rendering: hop-latency tables and loss provenance.

Turns a :class:`~repro.obs.index.TraceIndex` into the
:class:`~repro.bench.runner.Table` shapes the experiment harness
already renders, so trace output composes with experiment results (see
``scripts/trace_report.py`` and the E3/E10 wiring).
"""

from __future__ import annotations

from typing import Optional

from repro.bench.runner import Table
from repro.obs.index import TraceIndex
from repro.obs.trace import Tracer, hops
from repro.sim.metrics import Histogram, MetricsRegistry


def hop_latency_table(
    index: TraceIndex,
    title: str = "hop latency",
    registry: Optional[MetricsRegistry] = None,
) -> Table:
    """Per-transition latency breakdown (milliseconds).

    One row per observed hop transition ``a->b`` plus the end-to-end
    ``total.<terminal>`` rows; histograms land in ``registry`` (a fresh
    one if omitted) under ``obs.hop.*`` for reuse by experiments.
    """
    registry = index.hop_latencies(registry if registry is not None else MetricsRegistry())
    table = Table(
        title=title,
        columns=["hop", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"],
    )
    for name in registry.names():
        if not name.startswith("obs.hop."):
            continue
        histogram = registry.get(name)
        if not isinstance(histogram, Histogram):
            continue
        table.add(
            hop=name[len("obs.hop."):],
            count=histogram.count,
            mean_ms=round(histogram.mean * 1000, 3),
            p50_ms=round(histogram.p50 * 1000, 3),
            p99_ms=round(histogram.p99 * 1000, 3),
            max_ms=round(histogram.quantile(1.0) * 1000, 3),
        )
    return table


def loss_provenance_table(index: TraceIndex, title: str = "loss provenance") -> Table:
    """Lost updates grouped by (last hop passed, attributed cause)."""
    table = Table(title=title, columns=["last_hop", "cause", "lost_updates"])
    for (last_hop, cause), count in sorted(index.provenance_counts().items()):
        table.add(last_hop=last_hop, cause=cause, lost_updates=count)
    return table


def repair_summary_table(index: TraceIndex, title: str = "repairs") -> Table:
    """``corrupt.inject`` → ``reconcile.repair`` attribution per class.

    One row per corruption class: how many were injected, how many a
    later repair in the same scope fixed, and the longest inject-to-
    repair lag (the rounds-to-converge bound E13 asserts on).
    """
    summary = index.repair_summary()
    table = Table(
        title=title,
        columns=["class", "injected", "repaired", "unrepaired", "max_lag_s"],
    )
    for cls, row in sorted(summary["classes"].items()):
        table.add(
            **{"class": cls},
            injected=row["injected"],
            repaired=row["repaired"],
            unrepaired=row["unrepaired"],
            max_lag_s=round(row["max_lag_s"], 3),
        )
    return table


def trace_summary_row(index: TraceIndex) -> dict:
    """Compact per-config summary used by the E3/E10 trace tables."""
    registry = index.hop_latencies(MetricsRegistry())
    total: Optional[Histogram] = None
    for terminal in (hops.CACHE_APPLY, hops.WATCH_APPLY, hops.EDGE_DELIVER):
        histogram = registry.get(f"obs.hop.total.{terminal}")
        if isinstance(histogram, Histogram) and histogram.count:
            total = histogram
            break
    lost, attributed = index.wire_loss_coverage()
    return {
        "traced_updates": len(index.chains()),
        "delivered": len(index.delivered()),
        "e2e_p50_ms": round(total.p50 * 1000, 3) if total else None,
        "e2e_p99_ms": round(total.p99 * 1000, 3) if total else None,
        "wire_lost": lost,
        "lost_attributed": attributed,
    }


def render_trace_report(tracer: Tracer, label: str = "") -> str:
    """Full text report for one tracer: hop latencies + provenance."""
    index = TraceIndex(tracer.log)
    lines = []
    if label:
        lines.append(f"--- trace report: {label} ---")
    lines.append(
        f"traced updates: {len(index.chains())}  "
        f"delivered: {len(index.delivered())}  "
        f"events: {len(tracer.log)} (dropped from ring: {tracer.log.dropped})"
    )
    lines.append("")
    lines.append(hop_latency_table(index).render())
    provenance = loss_provenance_table(index)
    if provenance.rows:
        lines.append("")
        lines.append(provenance.render())
    lost, attributed = index.wire_loss_coverage()
    if lost:
        lines.append("")
        lines.append(
            f"wire-loss provenance: {attributed}/{lost} lost updates "
            f"attributed to an exact hop "
            f"({100.0 * attributed / lost:.1f}%)"
        )
    summary = index.repair_summary()
    if summary["classes"] or summary["repairs"]:
        lines.append("")
        lines.append(repair_summary_table(index).render())
        lines.append(
            f"repair attribution: {summary['repairs_attributed']}"
            f"/{summary['repairs']} repairs joined to an injection"
        )
    return "\n".join(lines)
