"""Edge hops in trace chains: "dropped at edge" provenance, terminals."""

import pytest

from repro._types import KeyRange
from repro.core.bridge import DirectIngestBridge
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, WatchEdgeFrontend
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.obs.index import TERMINAL_HOPS, TraceIndex
from repro.obs.trace import Tracer, hops
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore


class StaticPlacement:
    def __init__(self, frontend):
        self.frontend = frontend

    def frontend_for(self, client_name):
        return self.frontend


def build(sim, policy, **session_kwargs):
    tracer = Tracer(sim)
    store = MVCCStore(clock=sim.now)
    tracer.observe_store(store)
    source = WatchSystem(sim, name="source", tracer=tracer)
    DirectIngestBridge(sim, store.history, source, latency=0.001,
                       progress_interval=0.2)

    def store_snapshot(kr):
        version = store.last_version
        return version, dict(store.scan(kr, version))

    frontend = WatchEdgeFrontend(
        sim, "fe0", source, store_snapshot, tracer=tracer,
        config=EdgeFrontendConfig(
            session=SessionConfig(policy=policy, **session_kwargs),
        ),
    )
    return tracer, store, frontend


def test_edge_deliver_is_a_terminal_hop():
    assert hops.EDGE_DELIVER in TERMINAL_HOPS


def test_chains_end_at_edge_deliver(sim):
    tracer, store, frontend = build(sim, SlowConsumerPolicy.COALESCE)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run(until=1.0)
    for i in range(20):
        store.put(f"k{i:03d}", {"v": i})
    sim.run(until=5.0)
    index = TraceIndex(tracer.log)
    sequence = index.hop_sequence("k007", 8)
    assert sequence[0][0] == hops.COMMIT
    assert sequence[-1][0] == hops.EDGE_DELIVER
    summary = index.edge_summary()
    assert summary["delivered"] == 20
    assert summary["dropped"] == summary["coalesced"] == 0


def test_dropped_at_edge_provenance_matches_session_accounting(sim):
    tracer, store, frontend = build(
        sim, SlowConsumerPolicy.DROP,
        max_queue=8, initial_credits=2, delivery_latency=0.0,
    )
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), service_time=0.1)
    client.connect()
    sim.run(until=1.0)
    for i in range(120):
        store.put(f"k{i % 40:03d}", {"v": i})
    sim.run(until=60.0)
    session = client.session
    assert session.dropped > 0
    index = TraceIndex(tracer.log)
    records = [
        r for r in index.loss_provenance() if r.cause == "dropped at edge"
    ]
    # every shed update is attributed, named by the shedding session
    assert len(records) == session.dropped
    assert {r.at for r in records} == {"fe0/c0"}
    assert all(r.last_hop == hops.EDGE_DROP for r in records)
    summary = index.edge_summary()
    assert summary["dropped"] == session.dropped
    assert summary["delivered"] == session.delivered
    # edge sheds are not wire losses: coverage ignores them entirely
    assert index.wire_loss_coverage() == (0, 0)


def test_coalesce_traces_are_not_losses(sim):
    tracer, store, frontend = build(
        sim, SlowConsumerPolicy.COALESCE,
        initial_credits=1, delivery_latency=0.0,
    )
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), service_time=0.05)
    client.connect()
    sim.run(until=1.0)
    for i in range(100):
        store.put(f"k{i % 5:03d}", {"v": i})
    sim.run(until=60.0)
    session = client.session
    assert session.coalesced > 0
    index = TraceIndex(tracer.log)
    summary = index.edge_summary()
    assert summary["coalesced"] == session.coalesced
    assert summary["dropped"] == 0
    # coalescing is supersession, not loss: no provenance records at all
    assert index.loss_provenance() == []
    # the superseded chain records which version replaced it
    coalesces = [e for e in tracer.log if e.hop == hops.EDGE_COALESCE]
    assert all(
        e.attrs["superseded_by"] > e.version for e in coalesces
    )
