"""Tests for the worker state cache (LRU)."""

from repro.workqueue.state_cache import StateCache


def _cache(capacity):
    cache = StateCache()
    cache.capacity = capacity
    return cache


class TestStateCache:
    def test_cold_then_warm(self):
        cache = _cache(4)
        assert not cache.touch("a")
        assert cache.touch("a")
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = _cache(2)
        cache.touch("a")
        cache.touch("b")
        cache.touch("c")  # evicts a
        assert cache.evictions == 1
        assert not cache.contains("a")
        assert cache.contains("b") and cache.contains("c")

    def test_touch_refreshes_recency(self):
        cache = _cache(2)
        cache.touch("a")
        cache.touch("b")
        cache.touch("a")  # a now most recent
        cache.touch("c")  # evicts b
        assert cache.contains("a")
        assert not cache.contains("b")

    def test_contains_does_not_mutate(self):
        cache = _cache(2)
        cache.touch("a")
        hits = cache.hits
        assert not cache.contains("x")
        assert cache.contains("a")
        assert cache.hits == hits

    def test_drop_outside(self):
        cache = _cache(8)
        for key in ("a1", "a2", "b1"):
            cache.touch(key)
        dropped = cache.drop_outside(lambda k: k.startswith("a"))
        assert dropped == 1
        assert len(cache._entries) == 2

    def test_empty_hit_rate(self):
        assert _cache(2).hit_rate == 0.0
