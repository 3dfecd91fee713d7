"""Metrics collection for simulated systems.

Each substrate (broker, network, watch system, cache, work pool, ...)
owns its own :class:`MetricsRegistry`; experiments read whichever
registries they care about (summing across them where a cost spans
components, as E10 does for ``resilience.*``) and render the numbers
into their result tables.  The causal-tracing layer also lands its
per-hop latency histograms in a registry, under ``obs.hop.*`` (see
:meth:`repro.obs.index.TraceIndex.hop_latencies`).  Metric types:

- :class:`Counter` — monotonically increasing count.
- :class:`Gauge` — last-set value.
- :class:`Histogram` — streaming distribution with exact quantiles
  (values kept; simulations here are small enough for that).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A last-value-wins gauge."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name}={self._value})"


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


class LazyMetric:
    """A metric handle bound on first touch and kept on the instance.

    Declared at class level on a component that exposes ``metrics`` (a
    :class:`MetricsRegistry`) and has an instance ``__dict__``::

        _frames_sent = LazyMetric("counter", "net.frames.sent")
        _acked = LazyMetric("counter", "resilience.{0.name}.acked")

    The first read of ``self._frames_sent`` registers the metric (the name is
    ``str.format``-ed with the instance) and stores the handle in the
    instance ``__dict__``, which shadows this non-data descriptor from
    then on: a per-message path pays one attribute load, no registry
    lookup and no name formatting, and a metric that is never touched
    never appears in ``names()`` / ``snapshot()``.
    """

    __slots__ = ("_kind", "_template", "_attr")

    def __init__(self, kind: str, template: str) -> None:
        self._kind = kind
        self._template = template

    def __set_name__(self, owner: type, attr: str) -> None:
        self._attr = attr

    def __get__(self, obj: object, owner: Optional[type] = None) -> object:
        if obj is None:
            return self
        metric = getattr(obj.metrics, self._kind)(self._template.format(obj))
        obj.__dict__[self._attr] = metric
        return metric


class MetricsRegistry:
    """Namespace of metrics, created on first use.

    Names are dotted paths, e.g. ``pubsub.broker.published`` or
    ``watch.resyncs``.  Asking for the same name twice returns the same
    object; asking for the same name with a *different* type is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls: type) -> object:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, requested {cls.__name__}"
                )
            return existing
        metric = cls(name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, float]:
        """Flatten scalar metrics into a dict (histograms report p50/p99/n)."""
        out: Dict[str, float] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = float(metric.value)
            elif isinstance(metric, Gauge):
                out[name] = metric.value
            elif isinstance(metric, Histogram):
                out[f"{name}.count"] = float(metric.count)
                out[f"{name}.mean"] = metric.mean
                out[f"{name}.p50"] = metric.p50
                out[f"{name}.p99"] = metric.p99
        return out
