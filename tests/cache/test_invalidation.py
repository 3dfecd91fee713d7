"""Tests for pubsub invalidation — including a deterministic
reproduction of the Figure 2 race."""

import pytest

from repro.cache.cluster import CacheCluster
from repro.cache.invalidation import (
    FreeInvalidationPipeline,
    InvalidationMode,
    PubsubCacheNode,
    PubsubInvalidationPipeline,
)
from repro.cache.node import CacheNodeConfig
from repro.pubsub.broker import Broker
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sharding.leases import LeaseManager
from repro.storage.kv import MVCCStore


def build(sim, mode, num_nodes=2, leases=None, learn_after=None):
    """``learn_after``: per-node delays with which each node learns a
    new assignment after the sharder's notification."""
    store = MVCCStore(clock=sim.now)
    broker = Broker(sim)
    sharder = AutoSharder(
        sim, [f"n{i}" for i in range(num_nodes)],
        AutoSharderConfig(notify_latency=0.001, notify_jitter=0.0),
    )
    nodes = [
        PubsubCacheNode(
            sim, f"n{i}", store, mode, leases=leases,
            config=CacheNodeConfig(),
        )
        for i in range(num_nodes)
    ]
    for node, delay in zip(nodes, learn_after or ()):
        node.on_assignment = lambda a, node=node, delay=delay: sim.call_after(
            delay, lambda: PubsubCacheNode.on_assignment(node, a)
        )
    pipeline = PubsubInvalidationPipeline(sim, store, broker, sharder, nodes)
    return store, broker, sharder, nodes, pipeline


class TestSteadyState:
    def test_naive_mode_invalidation_reaches_someone(self, sim):
        store, broker, sharder, nodes, _ = build(sim, InvalidationMode.NAIVE)
        sim.run_for(0.5)
        store.put("k", "v1")
        sim.run_for(1.0)
        total_seen = sum(n.invalidation_messages_seen for n in nodes)
        assert total_seen == 1

    def test_owner_ack_bounces_to_owner(self, sim):
        store, broker, sharder, nodes, _ = build(sim, InvalidationMode.OWNER_ACK)
        sim.run_for(0.5)
        owner = sharder.assignment.owner_of("k")
        owner_node = next(n for n in nodes if n.name == owner)
        # cache the entry at the owner
        owner_node.serve("k")
        store.put("k", "v1")
        owner_node.serve("k")
        sim.run_for(0.5)
        store.put("k", "v2")
        sim.run_for(5.0)  # bounces until the owner acks
        assert owner_node.invalidations_acked >= 1
        # entry dropped: next serve misses and refills fresh
        owner_node.serve("k")
        sim.run_for(0.5)
        assert owner_node.serve("k") == ("hit", "v2")

    def test_lease_mode_requires_manager(self, sim):
        store = MVCCStore()
        with pytest.raises(ValueError):
            PubsubCacheNode(sim, "n", store, InvalidationMode.LEASE)


class TestFigure2Race:
    def test_deterministic_race_leaves_new_owner_stale_forever(self, sim):
        """Figure 2, step by step, deterministically:

        1. key x owned by A; reassigned to B;
        2. B learns quickly, fetches x (value v1) into its cache;
        3. producer updates x to v2; the invalidation is delivered to
           A (B's consumer is busy), and A — whose assignment view
           still says it owns x — acks it;
        4. A later learns the reassignment and drops its (already
           invalidated) state.  B is never told.  B serves v1 forever.
        """
        # controlled skew: B learns of an assignment after 0.02s, A after 0.5s
        store, broker, sharder, nodes, pipeline = build(
            sim, InvalidationMode.OWNER_ACK, learn_after=(0.5, 0.02)
        )
        node_a, node_b = nodes
        sim.run_for(1.0)

        store.put("x", "v1")
        sharder.move_key("x", "n0")  # ensure A owns x initially
        sim.run_for(1.0)
        assert node_a.owns("x") and not node_b.owns("x")

        t0 = sim.now()
        a_acked_before = node_a.invalidations_acked
        b_seen_before = node_b.invalidation_messages_seen
        # B's invalidation consumer is momentarily busy/unreachable, so
        # the broker routes to A
        pipeline._consumers["n1"].crash()
        sharder.move_key("x", "n1")  # the handoff
        # B (fast learner) fetches x soon after it learns
        sim.call_at(t0 + 0.05, lambda: node_b.serve("x"))
        # the producer updates x while A still believes it owns it
        sim.call_at(t0 + 0.10, lambda: store.put("x", "v2"))
        sim.call_at(t0 + 0.30, pipeline._consumers["n1"].recover)
        sim.run_for(10.0)

        # the update's invalidation was acked by A, the stale believer;
        # B never saw it
        assert node_a.invalidations_acked == a_acked_before + 1
        assert node_b.invalidation_messages_seen == b_seen_before
        # B caches v1 and will serve it forever; the store says v2
        assert store.get("x") == "v2"
        assert node_b.serve("x") == ("hit", "v1")
        entry = node_b.peek("x")
        assert entry is not None and entry.value == "v1"
        # and nothing in the application can ever detect it (§3.2.2)

    def test_same_schedule_with_lease_mode_stays_fresh(self, sim):
        """The §3.2.2 mitigation: with leases, A cannot ack after the
        handoff (its lease is gone), so the invalidation keeps bouncing
        until B takes it."""
        leases = LeaseManager(sim)
        store, broker, sharder, nodes, pipeline = build(
            sim, InvalidationMode.LEASE, leases=leases, learn_after=(0.5, 0.02)
        )
        node_a, node_b = nodes
        sharder.subscribe(leases.on_assignment)
        sim.run_for(1.0)
        store.put("x", "v1")
        sharder.move_key("x", "n0")
        sim.run_for(1.0)

        t0 = sim.now()
        sharder.move_key("x", "n1")
        sim.call_at(t0 + 0.05, lambda: node_b.serve("x"))
        sim.call_at(t0 + 0.10, lambda: store.put("x", "v2"))
        sim.run_for(10.0)
        # B eventually acked the invalidation (after the lease gap) and
        # the next read refills fresh
        node_b.serve("x")
        sim.run_for(1.0)
        status, value = node_b.serve("x")
        assert (status, value) == ("hit", "v2")


class TestLeaseAvailability:
    def test_no_holder_means_unavailable(self, sim):
        leases = LeaseManager(sim)
        store, broker, sharder, nodes, _ = build(
            sim, InvalidationMode.LEASE, leases=leases
        )
        sharder.subscribe(leases.on_assignment)
        sim.run_for(0.5)
        node = nodes[0]
        owned_key = None
        for key in ("akey", "zkey"):
            if sharder.assignment.owner_of(key) == node.name:
                owned_key = key
        assert owned_key is not None
        # first serve acquires the lease and proceeds as a miss
        status, _ = node.serve(owned_key)
        assert status in ("miss", "unavailable")


class TestFreePipeline:
    def test_every_node_sees_every_invalidation(self, sim):
        store = MVCCStore(clock=sim.now)
        broker = Broker(sim)
        sharder = AutoSharder(
            sim, ["n0", "n1", "n2"],
            AutoSharderConfig(notify_latency=0.001, notify_jitter=0.0),
        )
        nodes = [
            PubsubCacheNode(
                sim, f"n{i}", store, InvalidationMode.NAIVE,
                config=CacheNodeConfig(),
            )
            for i in range(3)
        ]
        FreeInvalidationPipeline(sim, store, broker, sharder, nodes)
        sim.run_for(0.5)
        for i in range(10):
            store.put(f"k{i}", i)
        sim.run_for(2.0)
        for node in nodes:
            assert node.invalidation_messages_seen == 10
