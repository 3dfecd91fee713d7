"""Tests for watch-based cache nodes."""

import pytest

from repro._types import KeyRange
from repro.cache.watch_cache import WatchCacheNode
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem
from repro.sharding.assignment import Assignment
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.storage.kv import MVCCStore


@pytest.fixture
def setup(sim):
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim)
    PartitionedIngestBridge(
        sim, store.history, ws, even_ranges(4), progress_interval=0.1
    )
    node = WatchCacheNode(sim, "n", store, ws)
    return store, ws, node


class TestServing:
    def test_serves_after_sync(self, sim, setup):
        store, ws, node = setup
        store.put("k", "v")
        node.on_assignment(Assignment.single("n"))
        sim.run_for(0.5)
        assert node.serve("k") == ("hit", "v")

    def test_unavailable_during_sync(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.single("n"))
        status, _ = node.serve("k")  # snapshot not fetched yet
        assert status == "unavailable"
        assert node.unavailable == 1

    def test_not_owner_outside_ranges(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.even(["n", "other"], ["m"]))
        sim.run_for(0.5)
        assert node.serve("zkey")[0] == "not_owner"

    def test_updates_flow_without_invalidation_protocol(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.single("n"))
        sim.run_for(0.5)
        store.put("k", "v1")
        sim.run_for(0.5)
        assert node.serve("k") == ("hit", "v1")
        store.put("k", "v2")
        sim.run_for(0.5)
        assert node.serve("k") == ("hit", "v2")

    def test_snapshot_read_at_version(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.single("n"))
        sim.run_for(0.5)
        v1 = store.put("k", "old")
        sim.run_for(0.5)
        store.put("k", "new")
        sim.run_for(0.5)
        known, value = node._cache_for("k").read_at("k", v1)
        assert known and value == "old"


class TestHandoff:
    def test_gaining_range_snapshots_fresh_state(self, sim, setup):
        """The watch answer to Figure 2: the new owner's snapshot+watch
        cannot miss an update regardless of handoff timing."""
        store, ws, node = setup
        other = WatchCacheNode(sim, "other", store, ws)
        store.put("x", "v1")
        node.on_assignment(Assignment.even(["other", "n"], ["m"]))
        other.on_assignment(Assignment.even(["other", "n"], ["m"]))
        sim.run_for(0.5)
        owner = other if "x" < "m" else node
        assert owner._cache_for("x") is not None
        # handoff x's range to n, with an update racing the handoff
        new_assignment = Assignment.single("n", generation=1)
        store.put("x", "v2")  # update lands just before n learns
        node.on_assignment(new_assignment)
        other.on_assignment(new_assignment)
        sim.run_for(1.0)
        assert node.serve("x") == ("hit", "v2")

    def test_losing_range_stops_cache(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.single("n"))
        sim.run_for(0.5)
        node.on_assignment(Assignment.single("other", generation=1))
        assert list(node._caches) == []
        assert node.serve("k")[0] == "not_owner"

    def test_stale_generation_ignored(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.single("n", generation=5))
        sim.run_for(0.5)
        node.on_assignment(Assignment.single("other", generation=2))
        assert node._cache_for("k") is not None

    def test_resync_counting_via_wipe(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.single("n"))
        sim.run_for(0.5)
        ws.wipe()
        sim.run_for(1.0)
        assert node.resync_count == 1
        store.put("k", "after")
        sim.run_for(0.5)
        assert node.serve("k") == ("hit", "after")


class TestPeek:
    def test_peek_returns_versioned_entry(self, sim, setup):
        store, ws, node = setup
        node.on_assignment(Assignment.single("n"))
        sim.run_for(0.5)
        v = store.put("k", "v")
        sim.run_for(0.5)
        entry = node.peek("k")
        assert entry is not None
        assert entry.value == "v"
        assert entry.version == v

    def test_peek_none_when_not_owned(self, sim, setup):
        store, ws, node = setup
        assert node.peek("k") is None
