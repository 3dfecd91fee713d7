"""Tests for metrics: counters, gauges, exact-quantile histograms."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(2.0)
        g.add(0.5)
        assert g.value == 2.5


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
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_flattens(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap["c"] == 3.0
        assert snap["g"] == 1.5
        assert snap["h.count"] == 1.0

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        assert reg.names() == ["aa", "zz"]
