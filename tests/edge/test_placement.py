"""SessionPlacement: routing, failover reassignment, rebalance eviction."""

import pytest

from repro._types import KeyRange
from repro.core.bridge import DirectIngestBridge
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import WatchEdgeFrontend
from repro.edge.placement import SessionPlacement
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore

# AutoSharder's even three-way split over client names puts
# "alice" on fe0, "mallory" on fe1, "zoe" on fe2.
NAMES = ["alice", "mallory", "zoe"]


def build(sim, num_frontends=3):
    store = MVCCStore(clock=sim.now)
    source = WatchSystem(sim, name="source")
    DirectIngestBridge(sim, store.history, source, latency=0.001,
                       progress_interval=0.2)

    def store_snapshot(kr):
        version = store.last_version
        return version, dict(store.scan(kr, version))

    def make_frontend(name):
        return WatchEdgeFrontend(sim, name, source, store_snapshot)

    frontends = [make_frontend(f"fe{i}") for i in range(num_frontends)]
    placement = SessionPlacement(sim, frontends)
    return store, frontends, placement, make_frontend


def write(store, n, keys=10, start=0):
    for i in range(start, start + n):
        store.put(f"k{i % keys:03d}", {"v": i})


def latest(store):
    return dict(store.scan(KeyRange.all(), store.last_version))


def test_clients_route_to_their_assigned_frontend(sim):
    store, frontends, placement, _ = build(sim)
    clients = [EdgeClient(sim, name, placement) for name in NAMES]
    for client in clients:
        client.connect()
    sim.run(until=1.0)
    for client, frontend in zip(clients, frontends):
        assert client.session is not None
        assert frontend.sessions[client.name] is client.session
        assert len(frontend.sessions) == 1


def test_removed_frontend_clients_reconnect_to_survivors(sim):
    store, frontends, placement, _ = build(sim)
    clients = [
        EdgeClient(sim, name, placement, reconnect_delay=0.2) for name in NAMES
    ]
    for client in clients:
        client.connect()
    sim.run(until=1.0)
    write(store, 40)
    sim.run(until=3.0)
    # frontend fe0 fails: crash drops its sessions, removal reassigns
    # its slice, and alice re-routes to the new owner (fe1)
    frontends[0].crash()
    placement.remove_frontend("fe0")
    write(store, 20, start=40)
    sim.run(until=10.0)
    alice = clients[0]
    assert alice.session is not None
    assert placement.frontend_for("alice") is frontends[1]
    assert frontends[1].sessions["alice"] is alice.session
    assert len(frontends[0].sessions) == 0
    for client in clients:
        assert client.state == latest(store)


def test_rebalance_evicts_sessions_from_old_owner(sim):
    store, frontends, placement, _ = build(sim)
    clients = [
        EdgeClient(sim, name, placement, reconnect_delay=0.2) for name in NAMES
    ]
    for client in clients:
        client.connect()
    sim.run(until=1.0)
    write(store, 40)
    sim.run(until=3.0)
    # drain fe0 without crashing it: the sharder reassigns its slice,
    # and fe0 evicts alice's now-stale session when the notice lands
    placement.remove_frontend("fe0")
    sim.run(until=10.0)
    alice = clients[0]
    assert placement.evictions == 1
    assert "rebalanced" in alice.close_reasons
    assert len(frontends[0].sessions) == 0
    assert alice.session is not None
    assert frontends[1].sessions["alice"] is alice.session
    assert alice.state == latest(store)


def test_add_frontend_takes_over_a_slice(sim):
    store, frontends, placement, make_frontend = build(sim, num_frontends=2)
    placement.add_frontend(make_frontend("fe2"))
    sim.run(until=1.0)
    owners = {placement.frontend_for(name).name for name in NAMES}
    assert "fe2" in owners
