"""Causal tracing and observability for the simulated systems.

The paper's claims are about *where* staleness and loss arise between a
producer commit and a consumer's view.  Aggregate counters
(:mod:`repro.sim.metrics`) can say *how many* updates were lost; this
package says *which hop* lost each one, Dapper/X-Trace style, with the
MVCC commit version doubling as the trace id:

- :mod:`repro.obs.trace` — :class:`Tracer` and the ``hops`` taxonomy:
  mint trace events at every pipeline hop, stamped with sim-clock
  times (never wall clock, so traces are deterministic).
- :mod:`repro.obs.eventlog` — :class:`EventLog`: bounded ring buffer of
  :class:`TraceEvent` records with deterministic JSONL export/import.
- :mod:`repro.obs.index` — :class:`TraceIndex`: reconstructs per-update
  causal chains, computes per-hop latency histograms into a
  :class:`~repro.sim.metrics.MetricsRegistry`, and attributes every
  lost update to the hop that dropped it (loss provenance).
- :mod:`repro.obs.report` — table/report rendering used by experiments
  and ``scripts/trace_report.py``.

Instrumentation is strictly observational: a ``tracer=None`` parameter
threads through the broker, subscriptions, CDC, watch system, relays,
resilience channels and cache nodes, and every recording
site is guarded so the traced and untraced runs schedule *identical*
simulation events — determinism is untouched.
"""

from repro.obs.eventlog import EventLog, TraceEvent
from repro.obs.index import LossRecord, TraceIndex
from repro.obs.mergehist import MergeHist, latency_edges
from repro.obs.trace import Tracer, TraceSampler, hops

__all__ = [
    "EventLog",
    "LossRecord",
    "MergeHist",
    "latency_edges",
    "TraceEvent",
    "TraceIndex",
    "TraceSampler",
    "Tracer",
    "hops",
]
