"""ClientSession: credits, slow-consumer policies, conservation."""

import sys

import pytest

from repro._types import KeyRange
from repro.edge.session import (
    ClientSession,
    SessionConfig,
    SlowConsumerPolicy,
    Update,
)
from repro.obs.trace import Tracer, hops


class RecordingClient:
    """Minimal client: applies deliveries, grants credits manually."""

    def __init__(self, auto_grant=True):
        self.name = "c"
        self.delivered = []
        self.snapshots = []
        self.closed = []
        self.auto_grant = auto_grant

    def on_delivery(self, session, item):
        if isinstance(item, Update):
            self.delivered.append(item)
        else:
            self.snapshots.append(item)
        if self.auto_grant:
            session.grant()

    def on_session_closed(self, session, reason):
        self.closed.append(reason)


def make_session(sim, client, **kwargs):
    config = SessionConfig(**kwargs)
    return ClientSession(sim, "fe/c", client, KeyRange.all(), config=config)


def upd(i, key=None):
    return Update(key=key or f"k{i:04d}", version=i, value=i)


def test_delivery_order_and_counters(sim):
    client = RecordingClient()
    session = make_session(sim, client, delivery_latency=0.001)
    for i in range(1, 11):
        session.offer(upd(i))
    sim.run()
    assert [u.version for u in client.delivered] == list(range(1, 11))
    assert session.delivered == 10
    assert session.offered == 10
    assert session.attributed == session.offered


def test_credits_gate_delivery(sim):
    client = RecordingClient(auto_grant=False)
    session = make_session(sim, client, initial_credits=3, delivery_latency=0.0)
    for i in range(1, 11):
        session.offer(upd(i))
    sim.run()
    # only the initial credits' worth delivered; the rest wait
    assert len(client.delivered) == 3
    assert session.backlog == 7
    session.grant(2)
    sim.run()
    assert len(client.delivered) == 5
    session.grant(100)
    sim.run()
    assert len(client.delivered) == 10
    assert session.attributed == session.offered


def test_coalesce_keeps_latest_per_key(sim):
    client = RecordingClient(auto_grant=False)
    session = make_session(
        sim, client,
        policy=SlowConsumerPolicy.COALESCE, initial_credits=1,
        delivery_latency=0.0,
    )
    # one credit: first update delivered, then the queue coalesces
    for i in range(1, 101):
        session.offer(upd(i, key=f"k{i % 5}"))
    sim.run()
    assert len(client.delivered) == 1
    # 5 distinct keys pending at most (minus the delivered one's slot)
    assert session.backlog <= 5
    session.grant(10)
    sim.run()
    # each key's latest value arrives exactly once
    latest = {u.key: u.version for u in client.delivered}
    for k in range(5):
        key = f"k{k}"
        expect = max(v for v in range(1, 101) if f"k{v % 5}" == key)
        assert latest[key] == expect
    assert session.coalesced > 0
    assert session.dropped == 0
    assert session.attributed == session.offered


def test_coalesce_queue_bounded_by_distinct_keys(sim):
    client = RecordingClient(auto_grant=False)
    session = make_session(
        sim, client,
        policy=SlowConsumerPolicy.COALESCE, initial_credits=1,
        max_queue=1000, delivery_latency=0.0,
    )
    for i in range(1, 10_001):
        session.offer(upd(i, key=f"k{i % 8}"))
    sim.run()
    assert session.peak_queue <= 8
    assert session.attributed == session.offered


def test_drop_policy_sheds_oldest_with_trace(sim):
    tracer = Tracer(sim)
    client = RecordingClient(auto_grant=False)
    session = ClientSession(
        sim, "fe/c", client, KeyRange.all(),
        config=SessionConfig(
            policy=SlowConsumerPolicy.DROP, max_queue=5,
            initial_credits=1, delivery_latency=0.0,
        ),
        tracer=tracer,
    )
    # all offers land before any delivery runs: the queue fills at 5,
    # then each further offer sheds the oldest queued update
    for i in range(1, 21):
        session.offer(upd(i))
    sim.run()
    assert len(client.delivered) == 1  # the one initial credit
    assert session.dropped == 15
    assert session.backlog == 4
    # the retained queue holds the newest updates
    session.grant(5)
    sim.run()
    assert [u.version for u in client.delivered] == [16, 17, 18, 19, 20]
    drops = [e for e in tracer.log.events() if e.hop == hops.EDGE_DROP]
    assert len(drops) == 15
    assert [e.version for e in drops] == list(range(1, 16))
    assert {e.attrs["session"] for e in drops} == {"fe/c"}
    assert session.attributed == session.offered


def test_disconnect_policy_closes_on_overflow(sim):
    client = RecordingClient(auto_grant=False)
    session = make_session(
        sim, client,
        policy=SlowConsumerPolicy.DISCONNECT, max_queue=4,
        initial_credits=1, delivery_latency=0.0,
    )
    # offers 1-4 queue; offer 5 overflows and closes the session before
    # any delivery runs (the remaining offers hit a dead session)
    for i in range(1, 10):
        session.offer(upd(i))
    sim.run()
    assert not session.active
    assert client.closed == ["slow-consumer"]
    assert session.delivered == 0
    # 4 queued at close + the overflow trigger, all re-servable
    assert session.returned_to_cursor == 5
    assert session.offered == 5
    # offers after close are ignored entirely (the frontend detaches)
    session.offer(upd(99))
    assert session.offered == 5
    assert session.attributed == session.offered


def test_close_returns_queue_to_cursor(sim):
    client = RecordingClient(auto_grant=False)
    session = make_session(sim, client, initial_credits=1, delivery_latency=0.0)
    for i in range(1, 8):
        session.offer(upd(i))
    sim.run()
    assert session.backlog == 6
    session.close("frontend-down")
    assert session.returned_to_cursor == 6
    assert session.backlog == 0
    assert client.closed == ["frontend-down"]
    assert session.attributed == session.offered


def test_snapshot_delivery_not_shed_by_drop(sim):
    client = RecordingClient(auto_grant=False)
    session = make_session(
        sim, client,
        policy=SlowConsumerPolicy.DROP, max_queue=3,
        initial_credits=1, delivery_latency=0.0,
    )
    session.offer_snapshot(10, {"a": 1})
    for i in range(11, 30):
        session.offer(upd(i))
    sim.run()
    # the snapshot was at the head: it consumed the credit, never shed
    assert len(client.snapshots) == 1
    assert client.snapshots[0].version == 10
    assert session.dropped > 0
    assert session.attributed == session.offered


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(max_queue=0)
    with pytest.raises(ValueError):
        SessionConfig(initial_credits=0)
    with pytest.raises(ValueError):
        SessionConfig(delivery_latency=-1.0)


def test_coalesce_disabled_queues_every_update(sim):
    # causally gated sessions run COALESCE-policy with supersession
    # off (SessionConfig.coalesce=False): in-place supersession hands
    # the newer value the superseded update's queue position — a
    # reorder that breaks causal delivery (docs/causal.md)
    client = RecordingClient()
    session = make_session(
        sim, client,
        policy=SlowConsumerPolicy.COALESCE, coalesce=False,
        max_queue=1000, delivery_latency=0.0,
    )
    for i in range(1, 101):
        session.offer(upd(i, key=f"k{i % 5}"))
    sim.run()
    # the full sequence, in offer order — nothing superseded
    assert [u.version for u in client.delivered] == list(range(1, 101))
    assert session.coalesced == 0
    assert session.attributed == session.offered


def test_coalesce_supersession_is_a_reorder(sim):
    # pins the hazard the causal tier must avoid: k1's second value
    # jumps the queue to its first value's position, overtaking the k2
    # update offered in between
    client = RecordingClient(auto_grant=False)
    session = make_session(
        sim, client,
        policy=SlowConsumerPolicy.COALESCE, initial_credits=1,
        delivery_latency=0.0,
    )
    session.offer(Update(key="k0", version=1))   # consumes the credit
    sim.run()
    session.offer(Update(key="k1", version=2))
    session.offer(Update(key="k2", version=3))
    session.offer(Update(key="k1", version=4))   # supersedes v2 in place
    session.grant(10)
    sim.run()
    delivered = [(u.key, u.version) for u in client.delivered]
    assert delivered == [("k0", 1), ("k1", 4), ("k2", 3)]


def test_drained_session_gives_queue_and_coalesce_table_back(sim):
    client = RecordingClient()
    session = make_session(sim, client, delivery_latency=0.001)
    assert session._policy is SlowConsumerPolicy.COALESCE
    for i in range(1, 201):
        session.offer(upd(i, key=f"k{i % 150:04d}"))
    sim.run()
    assert session.coalesced > 0 and session.backlog == 0
    assert session.delivered + session.coalesced == 200
    assert sys.getsizeof(session._queue) == sys.getsizeof([])
    assert sys.getsizeof(session._cells) == sys.getsizeof({})
