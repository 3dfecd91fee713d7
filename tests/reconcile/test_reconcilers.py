"""End-to-end tests for the two concrete reconcilers.

Each scenario corrupts live state the way the E13 injector does, runs
the reconciler on the sim clock, and asserts the state is back to legal
— and that a second settle window performs no further work (the
level-triggered idempotence the framework promises).
"""

import pytest

from repro._types import KeyRange, Mutation
from repro.core.bridge import DirectIngestBridge
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import WatchEdgeFrontend
from repro.edge.placement import SessionPlacement
from repro.reconcile import (
    AntiEntropyReconciler,
    EdgeReconciler,
    StateCorruptor,
    shard_scopes,
)
from repro.replication.checker import SnapshotChecker
from repro.replication.target import CursorCorruption, ReplicaStore
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore


def _latest(store):
    return dict(store.scan(KeyRange.all(), store.last_version))


class TestAntiEntropy:
    def _build(self, seed=5, keys=12):
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        checker = SnapshotChecker(store)
        replica = ReplicaStore()
        checker.attach_target(replica)
        for i in range(keys):
            version = store.put(f"k{i:02d}", {"v": i})
            replica.apply_versioned(f"k{i:02d}", Mutation.put({"v": i}), version)
        shards = shard_scopes(2)
        reconciler = AntiEntropyReconciler(
            sim, store, replica, shards, checker=checker,
        )
        corruptor = StateCorruptor(
            sim, source=store, replica=replica, shards=shards,
        )
        return sim, store, replica, reconciler, corruptor

    def test_legal_state_plans_nothing(self):
        sim, store, replica, reconciler, _ = self._build()
        reconciler.start()
        sim.run(until=3.0)
        assert reconciler.planned == 0
        assert (reconciler.idle_rounds >= 1)

    def test_repairs_torn_map(self):
        sim, store, replica, reconciler, corruptor = self._build()
        corruptor.inject("replica-map-tear")
        assert replica.items() != _latest(store)
        reconciler.start()
        sim.run(until=5.0)
        assert replica.items() == _latest(store)
        assert replica.fingerprint == reconciler.checker.source_fingerprint
        assert reconciler.repairs >= 1

    def test_repairs_rewound_cursors(self):
        sim, store, replica, reconciler, corruptor = self._build()
        corruptor.inject("replica-cursor-rewind")
        reconciler.start()
        sim.run(until=5.0)
        assert replica.items() == _latest(store)
        replica.verify_cursor(store.last_version)  # no raise

    def test_repairs_forged_future_cursors(self):
        sim, store, replica, reconciler, corruptor = self._build()
        corruptor.inject("replica-cursor-advance")
        with pytest.raises(CursorCorruption):
            replica.verify_cursor(store.last_version)
        reconciler.start()
        sim.run(until=5.0)
        replica.verify_cursor(store.last_version)  # no raise
        assert replica.items() == _latest(store)

    def test_second_settle_is_noop(self):
        sim, store, replica, reconciler, corruptor = self._build()
        corruptor.inject("replica-map-tear")
        reconciler.start()
        sim.run(until=5.0)
        planned, repairs = reconciler.planned, reconciler.repairs
        sim.run(until=10.0)
        assert (reconciler.planned, reconciler.repairs) == (planned, repairs)
        assert (reconciler.idle_rounds >= 1)


class TestEdgeReconciler:
    def _build(self, seed=7, num_clients=3):
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        source = WatchSystem(sim, name="src")
        DirectIngestBridge(sim, store.history, source, latency=0.001,
                           progress_interval=0.2)

        def store_snapshot(key_range):
            version = store.last_version
            return version, dict(store.scan(key_range, version))

        frontends = [
            WatchEdgeFrontend(sim, f"fe{i}", source, store_snapshot)
            for i in range(2)
        ]
        placement = SessionPlacement(sim, frontends)
        clients = [
            EdgeClient(sim, f"{chr(ord('a') + 13 * i)}c{i}", placement,
                       reconnect_delay=0.2)
            for i in range(num_clients)
        ]
        for client in clients:
            client.connect()
        for i in range(10):
            store.put(f"k{i:02d}", {"v": i})
        reconciler = EdgeReconciler(
            sim, clients, frontends,
            head_fn=lambda: store.last_version,
            sharder=placement.sharder,
        )
        corruptor = StateCorruptor(
            sim, source=store, clients=clients, frontends=frontends,
            sharder=placement.sharder,
        )
        return sim, store, placement, clients, frontends, reconciler, corruptor

    def test_healthy_topology_plans_nothing(self):
        sim, *_, reconciler, _ = self._build()
        reconciler.start()
        sim.run(until=3.0)
        assert reconciler.planned == 0

    def test_forged_client_cursor_forces_resync(self):
        sim, store, _, clients, _, reconciler, corruptor = self._build()
        sim.run(until=1.0)
        corruptor.inject("edge-cursor-advance")
        forged = [c for c in clients if c.cursor > store.last_version]
        assert len(forged) == 1
        reconciler.start()
        sim.run(until=5.0)
        assert reconciler.resyncs == 1
        assert forged[0].resyncs_forced == 1
        assert forged[0].cursor <= store.last_version
        assert forged[0].state == _latest(store)

    def test_orphaned_session_is_rehomed(self):
        sim, store, _, clients, frontends, reconciler, corruptor = self._build()
        sim.run(until=1.0)
        corruptor.inject("session-orphan")
        orphaned = [
            c for c in clients
            if c.session is not None and not any(
                fe.sessions.get(c.name) is c.session for fe in frontends
            )
        ]
        assert len(orphaned) == 1
        reconciler.start()
        sim.run(until=5.0)
        assert reconciler.rehomes == 1
        # the client reconnected and its new session is properly homed
        client = orphaned[0]
        assert any(
            fe.sessions.get(client.name) is client.session for fe in frontends
        )
        assert client.state == _latest(store)

    def test_forged_assignment_is_reinstalled(self):
        sim, _, placement, _, _, reconciler, corruptor = self._build()
        sim.run(until=1.0)
        corruptor.inject("assignment-stale")
        sharder = placement.sharder
        assert sharder.assignment.generation != sharder.generation
        reconciler.start()
        sim.run(until=5.0)
        assert reconciler.reinstalls == 1
        assert sharder.assignment.generation == sharder.generation

    def test_second_settle_is_noop(self):
        sim, _, _, _, _, reconciler, corruptor = self._build()
        sim.run(until=1.0)
        corruptor.inject("session-orphan")
        corruptor.inject("assignment-stale")
        reconciler.start()
        sim.run(until=6.0)
        planned = reconciler.planned
        assert planned >= 2
        sim.run(until=12.0)
        assert reconciler.planned == planned
        assert (reconciler.idle_rounds >= 1)
