"""WatchEdgeFrontend: reconnect decision rule, edge-served catch-up."""

import gc
import types

import pytest

from repro._types import KeyRange
from repro.core.bridge import DirectIngestBridge
from repro.core.stream import WatcherSession
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, WatchEdgeFrontend, _SessionFeed
from repro.edge.session import ClientSession, SessionConfig, SlowConsumerPolicy
from repro.obs.trace import Tracer, hops
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore


class StaticPlacement:
    """Routes every client to one fixed frontend."""

    def __init__(self, frontend):
        self.frontend = frontend

    def frontend_for(self, client_name):
        return self.frontend


def build(sim, tracer=None, net=None, **config_kwargs):
    store = MVCCStore(clock=sim.now)
    source = WatchSystem(sim, name="source", tracer=tracer)
    DirectIngestBridge(sim, store.history, source, latency=0.001,
                       progress_interval=0.2)

    def store_snapshot(kr):
        version = store.last_version
        return version, dict(store.scan(kr, version))

    frontend = WatchEdgeFrontend(
        sim, "fe0", source, store_snapshot, net=net, tracer=tracer,
        config=EdgeFrontendConfig(**config_kwargs),
    )
    return store, frontend


def write(store, n, keys=10, start=0):
    for i in range(start, start + n):
        store.put(f"k{i % keys:03d}", {"v": i})


def latest(store, keys=10):
    version = store.last_version
    return dict(store.scan(KeyRange.all(), version))


def test_fresh_client_converges_to_store(sim):
    store, frontend = build(sim)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run(until=1.0)
    write(store, 100)
    sim.run(until=5.0)
    assert client.state == latest(store)
    assert client.session.attributed == client.session.offered


def test_coalescing_feed_conserves_under_slow_consumer(sim):
    store, frontend = build(
        sim,
        session=SessionConfig(
            policy=SlowConsumerPolicy.COALESCE, max_queue=8,
            delivery_latency=0.01,
        ),
    )
    client = EdgeClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run(until=1.0)
    write(store, 300, keys=5)  # heavy same-key churn → coalescing
    sim.run(until=20.0)
    assert client.state == latest(store, keys=5)
    session = client.session
    assert session.coalesced > 0
    assert session.attributed == session.offered


def test_reconnect_close_behind_uses_delta_catchup(sim):
    store, frontend = build(sim, catchup_threshold=100)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), reconnect_delay=0.2)
    client.connect()
    sim.run(until=1.0)
    write(store, 50)
    sim.run(until=3.0)
    client.disconnect()
    write(store, 30, start=50)  # 30 versions behind < threshold
    sim.run(until=6.0)
    assert client.connects == 2
    assert frontend.catchups_served == 2  # initial connect + reconnect
    assert frontend.snapshots_served == 0
    assert client.staleness_at_connect[1] == 30
    assert client.state == latest(store)


def test_reconnect_far_behind_gets_edge_snapshot(sim):
    tracer = Tracer(sim)
    store, frontend = build(sim, tracer=tracer, catchup_threshold=20)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), reconnect_delay=0.2)
    client.connect()
    sim.run(until=1.0)
    write(store, 50)
    sim.run(until=3.0)
    client.disconnect()
    write(store, 100, start=50)  # 100 versions behind > threshold
    sim.run(until=6.0)
    assert client.connects == 2
    assert frontend.snapshots_served == 1
    assert client.snapshots_applied == 1
    assert client.state == latest(store)
    # the snapshot came from the relay's edge state, not the store:
    # the store-side snapshot_fn ran only for the relay's own sync
    assert frontend.source_snapshots == 1
    connects = [e for e in tracer.log if e.hop == hops.EDGE_CONNECT]
    assert [e.attrs["mode"] for e in connects] == ["delta", "snapshot"]
    assert connects[1].attrs["staleness"] == 100


def test_slow_consumer_disconnect_policy_cycles_session(sim):
    store, frontend = build(
        sim,
        session=SessionConfig(
            policy=SlowConsumerPolicy.DISCONNECT, max_queue=10,
            initial_credits=4, delivery_latency=0.0,
        ),
        catchup_threshold=1_000_000,
    )
    client = EdgeClient(
        sim, "c0", StaticPlacement(frontend),
        service_time=0.05, reconnect_delay=0.1,
    )
    client.connect()
    sim.run(until=0.5)
    # 200 updates in one burst overwhelm a 10-deep queue
    write(store, 200)
    sim.run(until=30.0)
    assert client.disconnects >= 1
    # nothing was lost: the cursor re-served everything still pending
    assert client.state == latest(store)
    totals = client.finalize()
    assert totals["dropped"] == 0
    assert totals["offered"] == sum(
        totals[k] for k in ("delivered", "coalesced", "dropped", "returned", "queued")
    )


def test_fanout_wipe_resyncs_feed_via_snapshot(sim):
    store, frontend = build(sim, catchup_threshold=1_000_000)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run(until=1.0)
    write(store, 40)
    sim.run(until=3.0)
    # edge soft-state loss: wiping the relay's fan-out resyncs every
    # session feed; the frontend recovers them from its own snapshot
    frontend.relay.fanout.wipe()
    write(store, 20, start=40)
    sim.run(until=8.0)
    assert frontend.feed_resyncs == 1
    assert frontend.snapshots_served == 1
    assert client.state == latest(store)


def test_frontend_over_lossy_network_converges(sim):
    net = Network(sim, NetworkConfig(base_latency=0.002, jitter=0.001,
                                     loss_rate=0.05))
    store, frontend = build(sim, net=net)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run(until=1.0)
    write(store, 150)
    sim.run(until=20.0)
    assert frontend.link.events_shipped >= 150
    assert client.state == latest(store)


def test_crash_drops_sessions_and_rejects_connects(sim):
    store, frontend = build(sim)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), reconnect_delay=0.3)
    client.connect()
    sim.run(until=1.0)
    frontend.crash()
    assert client.session is None
    assert len(frontend.sessions) == 0
    # auto-reconnect keeps retrying while the frontend is down
    sim.run(until=2.0)
    assert client.rejected_connects >= 1
    frontend.recover()
    write(store, 30)
    sim.run(until=10.0)
    assert client.session is not None
    assert client.state == latest(store)


_CHAIN_TYPES = (ClientSession, WatcherSession, _SessionFeed)


def _chain_objects_in_cycles():
    """Session-chain objects only a cycle-detecting collection frees."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [
            obj for obj in gc.garbage
            if isinstance(obj, _CHAIN_TYPES)
            or isinstance(getattr(obj, "__self__", None), _CHAIN_TYPES)
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("ending", ["disconnect", "feed-resync"])
def test_closed_session_chain_leaves_no_reference_cycle(sim, ending):
    """A closed client session, and a relay watch ended by cancel or by
    a resync, are freed by reference counting alone: no object of the
    chain holds a bound method of itself, so no full collection is
    needed."""
    store, frontend = build(sim, catchup_threshold=1_000_000)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run(until=1.0)
    write(store, 40)
    sim.run(until=3.0)
    gc.collect()
    if ending == "disconnect":
        client.stop()
        client.disconnect()
    else:
        frontend.relay.fanout.wipe()
    write(store, 20, start=40)
    sim.run(until=8.0)
    assert _chain_objects_in_cycles() == []
    if ending == "feed-resync":
        assert frontend.feed_resyncs == 1
        assert client.state == latest(store)
    else:
        assert client.session is None and len(frontend.sessions) == 0


def test_live_session_chain_holds_no_callable_but_its_owners_close_hook(sim):
    """Each live chain (client session, relay watcher, feed adapter)
    holds no bound method or function of its own: a callable stored per
    session is a tracked object per session.  The one exception is the
    owner's close hook, bound once per owner and shared by its sessions."""
    store, frontend = build(sim, catchup_threshold=1_000_000)
    clients = [
        EdgeClient(sim, f"c{i}", StaticPlacement(frontend)) for i in range(2)
    ]
    for client in clients:
        client.connect()
    write(store, 10)
    sim.run(until=2.0)
    callables = (types.MethodType, types.FunctionType)
    chains = []
    for client in clients:
        session = client.session
        watcher = session._feed_handle
        assert isinstance(watcher, WatcherSession)
        assert isinstance(watcher.callback, _SessionFeed)
        chains.append((session, watcher))
        for obj in (session, watcher, watcher.callback):
            held = [
                ref for ref in gc.get_referents(obj)
                if isinstance(ref, callables)
                and ref is not getattr(obj, "_on_closed", None)
            ]
            assert held == [], type(obj).__name__
    (first, first_watcher), (second, second_watcher) = chains
    assert first._on_closed is second._on_closed is not None
    assert first_watcher._on_closed is second_watcher._on_closed is not None


def test_untraced_session_and_its_relay_watcher_carry_no_name(sim):
    """Only tracer records read a session's name and its relay watcher's
    label, so a session the sampler leaves untraced builds neither; the
    label sequence still advances per session, so a traced label does
    not depend on which sessions were sampled."""
    store, frontend = build(
        sim, tracer=Tracer(sim), catchup_threshold=1_000_000, trace_sample=2
    )
    clients = [
        EdgeClient(sim, f"c{i}", StaticPlacement(frontend)) for i in range(3)
    ]
    for client in clients:
        client.connect()
    write(store, 5)
    sim.run(until=2.0)
    sessions = [client.session for client in clients]
    watchers = [session._feed_handle for session in sessions]
    assert [s.tracer is not None for s in sessions] == [True, False, True]
    assert [s.name for s in sessions] == ["fe0/c0", None, "fe0/c2"]
    prefix, seq = watchers[0].label.split("#")
    assert prefix == frontend.relay.fanout.name
    assert [w.label for w in watchers] == [
        watchers[0].label, None, f"{prefix}#{int(seq) + 2}"
    ]
