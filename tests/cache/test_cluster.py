"""Tests for cluster routing, probing, staleness audit."""

import pytest

from repro.cache.cluster import CacheCluster, ProbeStats, Prober
from repro.cache.invalidation import InvalidationMode, PubsubCacheNode
from repro.cache.node import CacheNodeConfig
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.storage.kv import MVCCStore


@pytest.fixture
def cluster_setup(sim):
    store = MVCCStore(clock=sim.now)
    sharder = AutoSharder(
        sim, ["n0", "n1"],
        AutoSharderConfig(notify_latency=0.001, notify_jitter=0.0),
    )
    nodes = [
        PubsubCacheNode(
            sim, f"n{i}", store, InvalidationMode.NAIVE,
            config=CacheNodeConfig(),
        )
        for i in range(2)
    ]
    for node in nodes:
        sharder.subscribe(node.on_assignment)
    cluster = CacheCluster(sim, sharder, nodes, store)
    sim.run_for(0.1)
    return store, sharder, nodes, cluster


class TestRouting:
    def test_read_routes_to_owner(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        store.put("akey", 1)
        status, value, node_name = cluster.read("akey")
        assert node_name == sharder.assignment.owner_of("akey")
        assert status == "miss"
        sim.run_for(0.5)
        status, value, _ = cluster.read("akey")
        assert (status, value) == ("hit", 1)

    def test_read_records_load(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        cluster.read("akey")
        assert sum(sharder._slice_loads.values()) > 0

    def test_unknown_owner_unavailable(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        sharder.move_key("akey", "ghost-node")
        sim.run_for(0.1)
        status, _, _ = cluster.read("akey")
        assert status == "unavailable"


class TestAudit:
    def test_fresh_entries_not_stale(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        store.put("akey", 1)
        cluster.read("akey")
        sim.run_for(0.5)
        assert cluster.total_stale(["akey"]) == 0

    def test_outdated_entry_detected(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        store.put("akey", 1)
        cluster.read("akey")
        sim.run_for(0.5)
        store.put("akey", 2)  # no invalidation pipeline attached
        assert cluster.total_stale(["akey"]) == 1

    def test_deleted_key_still_cached_counts(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        store.put("akey", 1)
        cluster.read("akey")
        sim.run_for(0.5)
        store.delete("akey")
        assert cluster.total_stale(["akey"]) == 1

    def test_audit_defaults_to_all_store_keys(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        store.put("akey", 1)
        store.put("zkey", 2)
        per_node = cluster.audit_staleness()
        assert set(per_node) == {"n0", "n1"}


class TestProber:
    def test_probe_stats_accumulate(self, sim, cluster_setup):
        store, sharder, nodes, cluster = cluster_setup
        store.put("akey", 1)
        prober = Prober(sim, cluster, ["akey"], rate=10.0)
        prober.start()
        sim.run_for(3.0)
        prober.stop()
        assert prober.stats.total > 10
        assert prober.stats.fresh > 0

    def test_stale_fraction_math(self):
        stats = ProbeStats(fresh=8, stale=2, miss=5, unavailable=5)
        assert stats.stale_fraction == 0.2
        assert stats.unavailable_fraction == 0.25
        assert stats.total == 20

    def test_empty_stats(self):
        stats = ProbeStats()
        assert stats.stale_fraction == 0.0
        assert stats.unavailable_fraction == 0.0
