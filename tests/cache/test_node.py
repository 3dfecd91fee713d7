"""Tests for cache nodes: fills, TTL, ownership views."""

import pytest

from repro._types import KeyRange
from repro.cache.node import CacheNode, CacheNodeConfig
from repro.sharding.assignment import Assignment
from repro.storage.kv import MVCCStore


def owned_all(node, generation=0):
    node.on_assignment(Assignment.single(node.name, generation=generation))


class TestServe:
    def test_miss_then_fill_then_hit(self, sim):
        store = MVCCStore()
        store.put("k", "v")
        node = CacheNode(sim, "n", store, CacheNodeConfig())
        owned_all(node)
        status, value = node.serve("k")
        assert (status, value) == ("miss", None)
        sim.run_for(0.5)
        status, value = node.serve("k")
        assert (status, value) == ("hit", "v")
        assert node.fills == 1

    def test_not_owner(self, sim):
        store = MVCCStore()
        node = CacheNode(sim, "n", store)
        node.on_assignment(Assignment.single("someone-else"))
        assert node.serve("k") == ("not_owner", None)
        assert node.not_owner == 1

    def test_concurrent_fills_deduped(self, sim):
        store = MVCCStore()
        store.put("k", "v")
        node = CacheNode(sim, "n", store, CacheNodeConfig())
        owned_all(node)
        node.serve("k")
        node.serve("k")
        sim.run_for(1.0)
        assert node.fills == 1

    def test_fill_of_missing_key_caches_nothing(self, sim):
        store = MVCCStore()
        node = CacheNode(sim, "n", store)
        owned_all(node)
        node.serve("ghost")
        sim.run_for(1.0)
        assert node.peek("ghost") is None

    def test_fill_aborts_if_range_lost(self, sim):
        store = MVCCStore()
        store.put("k", "v")
        node = CacheNode(sim, "n", store, CacheNodeConfig())
        owned_all(node)
        node.serve("k")
        node.on_assignment(Assignment.single("other", generation=1))
        sim.run_for(2.0)
        assert node.peek("k") is None


class TestInvalidation:
    def test_older_entry_dropped(self, sim):
        store = MVCCStore()
        v1 = store.put("k", "v1")
        node = CacheNode(sim, "n", store)
        owned_all(node)
        node.serve("k")
        sim.run_for(0.5)
        v2 = store.put("k", "v2")
        node.apply_invalidation("k", v2)
        assert node.peek("k") is None
        assert node.invalidations_applied == 1

    def test_newer_entry_kept(self, sim):
        store = MVCCStore()
        store.put("k", "v1")
        v2 = store.put("k", "v2")
        node = CacheNode(sim, "n", store)
        owned_all(node)
        node.serve("k")
        sim.run_for(0.5)
        node.apply_invalidation("k", v2 - 1)  # stale invalidation
        assert node.peek("k") is not None


class TestTTL:
    def test_expiry_forces_refetch(self, sim):
        store = MVCCStore()
        store.put("k", "v1")
        node = CacheNode(
            sim, "n", store, CacheNodeConfig(ttl=1.0)
        )
        owned_all(node)
        node.serve("k")
        sim.run_for(0.5)
        assert node.serve("k")[0] == "hit"
        store.put("k", "v2")
        sim.run_for(2.0)  # TTL expired
        status, _ = node.serve("k")
        assert status == "miss"
        sim.run_for(0.5)
        assert node.serve("k") == ("hit", "v2")

    def test_expired_entry_invisible_to_peek(self, sim):
        store = MVCCStore()
        store.put("k", "v")
        node = CacheNode(
            sim, "n", store, CacheNodeConfig(ttl=1.0)
        )
        owned_all(node)
        node.serve("k")
        sim.run_for(0.5)
        assert node.peek("k") is not None
        sim.run_for(2.0)
        assert node.peek("k") is None


class TestOwnershipView:
    def test_losing_range_drops_entries(self, sim):
        store = MVCCStore()
        store.put("b", 1)
        store.put("q", 2)
        node = CacheNode(sim, "n", store, CacheNodeConfig())
        owned_all(node)
        node.serve("b")
        node.serve("q")
        sim.run_for(0.5)
        assert len(node._entries) == 2
        node.on_assignment(
            Assignment.even(["n", "other"], ["m"], generation=1)
        )
        assert node.owns("b") and not node.owns("q")
        assert len(node._entries) == 1

    def test_stale_generation_ignored(self, sim):
        store = MVCCStore()
        node = CacheNode(sim, "n", store)
        node.on_assignment(Assignment.single("n", generation=5))
        node.on_assignment(Assignment.single("other", generation=3))  # stale
        assert node.owns("k")
