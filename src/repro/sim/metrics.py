"""Metrics collection for simulated systems.

Each substrate (broker, network, watch system, cache, work pool, ...)
owns its own :class:`MetricsRegistry`, or shares one; experiments read
whichever registries they care about (summing across them where a cost
spans components, as E10 does for ``resilience.*``) and render the
numbers into their result tables.  The causal-tracing layer also lands
its per-hop latency histograms in a registry, under ``obs.hop.*`` (see
:meth:`repro.obs.index.TraceIndex.hop_latencies`).

Counts are *pulled*: a component keeps each count as a plain int
attribute (``self.frames_sent += 1`` on the hot path) and registers one
reader that yields the names it has touched with their values; the
registry calls the readers only when asked (:meth:`~MetricsRegistry.
snapshot`, :meth:`~MetricsRegistry.get`, :meth:`~MetricsRegistry.names`).
A reader yields a name exactly when the component has counted it (or,
for a count the component reports from construction, always), so a
registry holds the same names whether or not anything reads it.
:class:`Histogram` — a streaming distribution with exact quantiles
(values kept; simulations here are small enough for that) — is pushed
instead, through ``registry.histogram(name).observe(value)``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: yields ``(name, value)`` for every count its owner reports right now
Reader = Callable[[], Iterable[Tuple[str, float]]]


class Histogram:
    """Exact-quantile histogram (keeps all observations, sorted lazily)."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        return self.total / len(self._values) if self._values else 0.0

    def _ensure_sorted(self) -> List[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    def quantile(self, q: float) -> float:
        """Exact quantile by linear interpolation; 0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        values = self._ensure_sorted()
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        pos = q * (len(values) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        # numerically stable interpolation: stays inside
        # [values[lo], values[hi]] even when the endpoints are equal
        return values[lo] + frac * (values[hi] - values[lo])

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name}, n={self.count}, p50={self.p50:.4g}, p99={self.p99:.4g})"


class MetricsRegistry:
    """Namespace of metrics: pulled counts plus pushed histograms.

    Names are dotted paths, e.g. ``pubsub.published`` or
    ``watch.watchsys.resyncs``.  A component keeps its counts as plain
    ints and registers one *reader* — a callable yielding
    ``(name, value)`` for every count it has touched — so counting costs
    the hot path one add and no call into this module.  When several
    readers on one registry yield the same name (two channels sharing a
    name), the values are summed.  Histograms are created on first use
    by :meth:`histogram` and fed with ``observe``.
    """

    def __init__(self) -> None:
        self._readers: List[Reader] = []
        self._histograms: Dict[str, Histogram] = {}

    def register(self, reader: Reader) -> None:
        """Add ``reader`` to the counts this registry reports."""
        self._readers.append(reader)

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def _counts(self) -> Dict[str, float]:
        counts: Dict[str, float] = {}
        for reader in self._readers:
            for name, value in reader():
                counts[name] = counts.get(name, 0) + value
        return counts

    def names(self) -> List[str]:
        return sorted({**self._counts(), **self._histograms})

    def get(self, name: str) -> Optional[object]:
        """The histogram or the (summed) count named ``name``; None if
        nothing has touched it."""
        histogram = self._histograms.get(name)
        if histogram is not None:
            return histogram
        return self._counts().get(name)

    def snapshot(self) -> Dict[str, float]:
        """Flatten every metric into a dict (histograms report
        count/mean/p50/p99)."""
        counts = self._counts()
        histograms = self._histograms
        out: Dict[str, float] = {}
        for name in sorted({**counts, **histograms}):
            histogram = histograms.get(name)
            if histogram is None:
                out[name] = float(counts[name])
            else:
                out[f"{name}.count"] = float(histogram.count)
                out[f"{name}.mean"] = histogram.mean
                out[f"{name}.p50"] = histogram.p50
                out[f"{name}.p99"] = histogram.p99
        return out
