"""Tests for metrics: the pulled-count registry, exact-quantile histograms."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import Histogram, MetricsRegistry


class _Owner:
    """A component that counts in plain ints and reports the touched ones."""

    def __init__(self, registry: MetricsRegistry, **counts: int) -> None:
        self.counts = counts
        registry.register(self._counts)

    def _counts(self):
        return [(name, value) for name, value in self.counts.items() if value]


class TestHistogram:
    def test_empty_quantiles_zero(self):
        h = Histogram("h")
        assert h.p50 == 0.0
        assert h.count == 0

    def test_single_value(self):
        h = Histogram("h")
        h.observe(3.0)
        assert h.p50 == h.p99 == 3.0

    def test_known_quantiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.p50 == pytest.approx(50.5)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_unsorted_inserts(self):
        h = Histogram("h")
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            h.observe(v)
        assert h.p50 == 3.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 5.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_quantiles_bounded_by_extremes(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert min(values) <= h.quantile(q) <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=100))
    def test_quantiles_monotone(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        qs = [h.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=50))
    def test_mean_matches_fsum(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        assert h.mean == pytest.approx(math.fsum(values) / len(values))


class TestRegistry:
    def test_same_name_same_object(self):
        reg = MetricsRegistry()
        assert reg.histogram("a") is reg.histogram("a")

    def test_snapshot_flattens(self):
        reg = MetricsRegistry()
        _Owner(reg, c=3)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap == {
            "c": 3.0, "h.count": 1.0, "h.mean": 2.0, "h.p50": 2.0, "h.p99": 2.0,
        }
        assert type(snap["c"]) is float

    def test_names_sorted(self):
        reg = MetricsRegistry()
        _Owner(reg, zz=1)
        reg.histogram("mm")
        _Owner(reg, aa=1)
        assert reg.names() == ["aa", "mm", "zz"]

    def test_counts_are_read_when_asked(self):
        reg = MetricsRegistry()
        owner = _Owner(reg, c=0)
        assert reg.names() == [] and reg.get("c") is None
        owner.counts["c"] = 2
        assert reg.get("c") == 2 and reg.snapshot() == {"c": 2.0}
        owner.counts["c"] += 5
        assert reg.get("c") == 7

    def test_owners_sharing_a_name_are_summed(self):
        reg = MetricsRegistry()
        _Owner(reg, shared=2, mine=1)
        _Owner(reg, shared=3, other=0)
        assert reg.snapshot() == {"mine": 1.0, "shared": 5.0}

    def test_get_returns_the_histogram(self):
        reg = MetricsRegistry()
        histogram = reg.histogram("h")
        assert reg.get("h") is histogram
        assert reg.get("missing") is None
