"""SessionTable: slot lifecycle, conservation at scale, shared drain.

The table is the E14 backbone (docs/scale.md): dense sids over array
columns, a LIFO freelist with generations, and the O(active) intrusive
ready list behind shared-drain mode.  Conservation
(``offered == delivered + coalesced + dropped + returned + queued``)
must hold per session *and* across 100k sessions summed in C.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro._types import KeyRange
from repro.edge.session import ClientSession, SessionConfig, SlowConsumerPolicy, Update
from repro.edge.session_table import SessionTable
from repro.obs.trace import TraceSampler
from repro.sim.kernel import Simulation


class _Client:
    """Minimal client: applies instantly, grants one credit per item."""

    def __init__(self):
        self.delivered = []
        self.closed = []

    def on_delivery(self, session, item):
        self.delivered.append(item)
        session.grant()

    def on_session_closed(self, session, reason):
        self.closed.append(reason)


def _update(i, key=None):
    return Update(key=key or f"k{i:06d}", version=i, value=i)


def _session(sim, table, name="s", policy=SlowConsumerPolicy.COALESCE, **kw):
    client = _Client()
    config = SessionConfig(policy=policy, **kw)
    session = ClientSession(
        sim, name, client, key_range=KeyRange.all(), config=config, table=table
    )
    return session, client


# ----------------------------------------------------------------------
# slot lifecycle


def test_slots_are_dense_and_reused_lifo():
    sim = Simulation()
    table = SessionTable()
    s0, _ = _session(sim, table, "a")
    s1, _ = _session(sim, table, "b")
    s2, _ = _session(sim, table, "c")
    assert (s0.sid, s1.sid, s2.sid) == (0, 1, 2)
    assert table.active == 3
    s1.close()
    assert table.active == 2
    assert table._sessions[1] is None
    # LIFO: the freed slot is the next one handed out
    s3, _ = _session(sim, table, "d")
    assert s3.sid == 1
    assert table.capacity == 3  # peak concurrency, not total connects


def test_generation_bumps_on_release():
    sim = Simulation()
    table = SessionTable()
    s0, _ = _session(sim, table)
    sid = s0.sid
    assert table.generation[sid] == 0
    s0.close()
    assert table.generation[sid] == 1
    s1, _ = _session(sim, table)
    assert s1.sid == sid and table.generation[sid] == 1
    s1.close()
    assert table.generation[sid] == 2


def test_reused_slot_columns_are_zeroed():
    sim = Simulation()
    table = SessionTable()
    s0, _ = _session(sim, table)
    s0.offer(_update(1))
    sim.run()
    assert s0.delivered == 1
    s0.close()
    s1, _ = _session(sim, table)
    assert s1.sid == s0.sid
    assert s1.offered == 0 and s1.delivered == 0 and s1.peak_queue == 0


def test_closed_session_counters_survive_slot_reuse():
    """EdgeClient folds counters inside on_session_closed; the numbers
    must stay readable after the slot is recycled by a reconnect."""
    sim = Simulation()
    table = SessionTable()
    s0, _ = _session(sim, table)
    for i in range(1, 6):
        s0.offer(_update(i))
    sim.run()
    s0.close()
    s1, _ = _session(sim, table)
    s1.offer(_update(100))
    assert s1.sid == s0.sid
    # old session still reports its final numbers, not the new slot's
    assert s0.offered == 5 and s0.delivered == 5
    assert s0.attributed == s0.offered


def test_table_rejects_bad_drain_config():
    with pytest.raises(ValueError):
        SessionTable(drain_interval=0.01)  # needs the sim
    with pytest.raises(ValueError):
        SessionTable(sim=Simulation(), drain_interval=-1.0)
    with pytest.raises(ValueError):
        TraceSampler(0)


# ----------------------------------------------------------------------
# conservation at scale


def test_conservation_across_100k_sessions():
    """100k sessions, mixed outcomes; the C-summed table columns obey
    conservation and match the per-session view."""
    sim = Simulation()
    table = SessionTable()
    n = 100_000
    sessions = []
    for i in range(n):
        session, _ = _session(
            sim, table, f"s{i}",
            policy=SlowConsumerPolicy.COALESCE, max_queue=4, initial_credits=1,
        )
        sessions.append(session)
    # each session: 3 offers on 2 keys -> 1 coalesce each once drained
    for i, session in enumerate(sessions):
        session.offer(_update(1, key="a"))
        session.offer(_update(2, key="a"))
        session.offer(_update(3, key="b"))
    sim.run()
    totals = table.totals()
    assert totals["offered"] == 3 * n
    assert totals["coalesced"] == n
    assert totals["delivered"] == 2 * n
    assert (
        totals["offered"]
        == totals["delivered"] + totals["coalesced"] + totals["dropped"]
        + totals["returned"]
    )
    assert table.capacity == n
    # spot-check the per-session properties read the same columns
    assert sessions[12345].offered == 3
    assert sessions[12345].attributed == 3


def test_totals_include_closed_unrecycled_slots():
    sim = Simulation()
    table = SessionTable()
    s0, _ = _session(sim, table)
    s0.offer(_update(1))
    sim.run()
    s0.close()
    # slot not yet recycled: its counters still sit in the columns
    assert table.totals()["delivered"] == 1


# ----------------------------------------------------------------------
# shared drain: one pump event, O(active) visits, kick order


def test_shared_drain_delivers_everything_in_kick_order():
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    s_a, c_a = _session(sim, table, "a", initial_credits=4)
    s_b, c_b = _session(sim, table, "b", initial_credits=4)
    s_b.offer(_update(1, key="b1"))  # b kicked first
    s_a.offer(_update(2, key="a1"))
    s_a.offer(_update(3, key="a2"))
    sim.run()
    assert [u.key for u in c_b.delivered] == ["b1"]
    assert [u.key for u in c_a.delivered] == ["a1", "a2"]
    assert s_a.attributed == s_a.offered and s_b.attributed == s_b.offered
    assert table.pump_runs >= 1


def test_shared_drain_visits_only_ready_sessions():
    """Idle sessions cost the pump nothing: visits counts ready
    sessions, not the population."""
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    sessions = [_session(sim, table, f"s{i}")[0] for i in range(500)]
    sessions[7].offer(_update(1))
    sessions[333].offer(_update(2))
    sim.run()
    assert table.pump_visits == 2
    assert table.active == 500


def test_shared_drain_one_pump_event_per_tick():
    """N ready sessions share one pump event per tick instead of N
    delivery events (the O(active) bar)."""
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    sessions = [
        _session(sim, table, f"s{i}", initial_credits=8)[0] for i in range(50)
    ]
    for i, session in enumerate(sessions):
        session.offer(_update(i + 1))
    sim.run()
    # every session delivered its item; the pump ran once (one tick)
    assert table.pump_runs == 1
    assert table.totals()["delivered"] == 50


def test_shared_drain_session_close_mid_ready_is_safe():
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    s_a, c_a = _session(sim, table, "a")
    s_b, c_b = _session(sim, table, "b")
    s_a.offer(_update(1))
    s_b.offer(_update(2))
    s_a.close()  # closed while sitting on the ready list
    sim.run()
    assert c_a.delivered == []
    assert len(c_b.delivered) == 1
    assert s_a.returned_to_cursor == 1  # the queued update went back
    assert s_a.attributed == s_a.offered


def test_shared_drain_is_deterministic():
    def run_once():
        sim = Simulation()
        table = SessionTable(sim=sim, drain_interval=0.003)
        log = []

        class _C(_Client):
            def on_delivery(self, session, item):
                log.append((sim.now(), session.name, item.key))
                super().on_delivery(session, item)

        sessions = []
        for i in range(40):
            client = _C()
            session = ClientSession(
                sim, f"s{i}", client, key_range=KeyRange.all(),
                config=SessionConfig(initial_credits=2), table=table,
            )
            sessions.append(session)
        for round_ in range(5):
            for i, session in enumerate(sessions):
                if (i + round_) % 3 == 0:
                    session.offer(_update(round_ * 100 + i))
        sim.run()
        return log

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# slot reuse under snapshot-heavy reconnect storms (the E17 regime: a
# storm wave disconnects, reconnects below the retention floor, and is
# re-served by full snapshots — every reconnect recycles a slot while
# snapshots flow through the queue)


def _snapshot(version, n_items=3):
    return version, {f"k{i}": version * 10 + i for i in range(n_items)}


def test_generation_tracks_every_release_through_a_storm():
    """Three storm waves over the same slots: each sid's generation
    equals exactly how many times that slot was freed, and a handle
    captured before a wave is detectably stale after it."""
    sim = Simulation()
    table = SessionTable()
    sessions = [_session(sim, table, f"s{i}")[0] for i in range(8)]
    releases = [0] * 8
    stale = []  # (sid, generation-at-attach) pairs from closed waves
    for wave in range(3):
        victims = [s for i, s in enumerate(sessions) if (i + wave) % 2 == 0]
        for victim in victims:
            version, items = _snapshot(wave + 1)
            victim.offer_snapshot(version, items)
        sim.run()
        for victim in victims:
            stale.append((victim.sid, table.generation[victim.sid]))
            victim.close()
            releases[victim.sid] += 1
        # the storm wave reconnects immediately: LIFO reuse of the
        # just-freed slots, all mid-storm
        for j, victim in enumerate(victims):
            replacement, _ = _session(sim, table, f"w{wave}r{j}")
            assert table.generation[replacement.sid] == releases[replacement.sid]
            sessions[sessions.index(victim)] = replacement
    assert list(table.generation) == releases
    assert table.capacity == 8  # storms recycled, never grew, the table
    # every handle from a closed wave is detectably stale
    for sid, generation_at_attach in stale:
        assert table.generation[sid] > generation_at_attach


def test_snapshot_column_zeroed_when_storm_reuses_slot():
    sim = Simulation()
    table = SessionTable()
    s0, c0 = _session(sim, table)
    s0.offer_snapshot(*_snapshot(5))
    s0.offer_snapshot(*_snapshot(6))
    sim.run()
    assert s0.snapshots_delivered == 2
    s0.close()
    s1, _ = _session(sim, table)
    assert s1.sid == s0.sid
    # the recycled slot starts clean; the closed session still reports
    # its own snapshot count from the close-time _final capture
    assert s1.snapshots_delivered == 0
    assert s0.snapshots_delivered == 2
    assert table.snapshots[s1.sid] == 0


def test_conservation_survives_snapshot_heavy_churn():
    """Fold counters EdgeClient-style at close time across a multi-wave
    snapshot storm; lifetime attribution stays exact even though
    ``totals()`` columns are zeroed by slot reuse."""
    sim = Simulation()
    table = SessionTable()
    folded = {"offered": 0, "attributed": 0, "snapshots": 0}

    def fold(session):
        folded["offered"] += session.offered
        folded["attributed"] += session.attributed
        folded["snapshots"] += session.snapshots_delivered

    n = 64
    sessions = [
        _session(sim, table, f"s{i}", max_queue=4, initial_credits=2)[0]
        for i in range(n)
    ]
    version = 0
    for wave in range(4):
        for i, session in enumerate(sessions):
            version += 1
            session.offer(_update(version, key=f"k{i % 3}"))
            if i % 2 == wave % 2:
                session.offer_snapshot(*_snapshot(version))
        sim.run()  # the storm's traffic (snapshots included) lands...
        for i in range(wave % 2, n, 2):
            version += 1
            sessions[i].offer(_update(version, key=f"k{i % 3}"))
            # ...then half the wave disconnects with work still queued
            fold(sessions[i])
            sessions[i].close()
            # ...and reconnects into the just-freed slot mid-storm
            sessions[i] = _session(
                sim, table, f"w{wave}s{i}", max_queue=4, initial_credits=2
            )[0]
        sim.run()
    for session in sessions:
        fold(session)
        session.close()
    assert folded["offered"] > 0 and folded["snapshots"] > 0
    assert folded["attributed"] == folded["offered"]
    assert table.capacity == n  # churn recycled slots, never grew


def test_shared_drain_reuse_mid_ready_delivers_to_new_session_once():
    """A storm closes a session sitting on the ready list and a
    reconnect claims its sid before the pump fires: the pump must
    deliver the *new* session's item exactly once (the stale link is
    skipped, the fresh link served)."""
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    s0, c0 = _session(sim, table, "old")
    s0.offer(_update(1, key="old-key"))  # s0 joins the ready list
    s0.close()  # slot freed while linked
    s1, c1 = _session(sim, table, "new")
    assert s1.sid == s0.sid
    s1.offer_snapshot(*_snapshot(7))  # re-serve: new session re-enqueues
    sim.run()
    assert c0.delivered == []
    assert len(c1.delivered) == 1
    assert s1.snapshots_delivered == 1
    assert s0.returned_to_cursor == 1  # old queued update went back
    assert s0.attributed == s0.offered


# ----------------------------------------------------------------------
# trace sampling


def test_sampler_keeps_every_nth():
    sampler = TraceSampler(4)
    kept = [i for i in range(12) if sampler.keep(i)]
    assert kept == [0, 4, 8]
    assert all(TraceSampler().keep(i) for i in range(5))  # default: all


# ----------------------------------------------------------------------
# stateful model: the table against a dict-of-deques reference

_TICK = 1.0


class _QueueSession:
    """Stand-in for ``ClientSession`` as the shared drain sees it: a
    queue the pump drains one item per visit, re-kicking itself while
    items remain."""

    def __init__(self, machine, name):
        self.machine = machine
        self.name = name
        self.queue = deque()
        self.released = False
        self.sid = machine.table.attach(self)

    def _deliver_next(self):
        assert not self.released, f"released session {self.name} delivered"
        self.queue.popleft()
        table = self.machine.table
        table.delivered[self.sid] += 1
        self.machine.visited.append(self.name)
        if self.queue:
            table.enqueue_ready(self.sid)


class SessionTableMachine(RuleBasedStateMachine):
    """Slot reuse with generations, the tri-state ready link and the
    shared-drain pump, checked against plain dicts and deques.

    The reference ready list is the link order: a session's first
    enqueue appends its sid; enqueueing a sid still on the list — armed,
    or stale because its slot was released — re-arms it in place; a
    release marks a listed sid stale; the pump walks the list and serves
    one item to every armed sid's session, whose re-kick goes onto the
    next tick's list."""

    def __init__(self):
        super().__init__()
        self.sim = Simulation()
        self.table = SessionTable(sim=self.sim, drain_interval=_TICK)
        self.live = {}  # name -> _QueueSession
        self.names = 0
        self.visited = []
        # the reference
        self.queues = {}  # name -> deque of queued items
        self.occupant = {}  # sid -> name of the live session there
        self.free = []
        self.capacity = 0
        self.generation = {}
        self.offered = {}
        self.delivered = {}
        self.ready = []  # [sid, armed] in link order

    def _ref_enqueue(self, sid):
        for link in self.ready:
            if link[0] == sid:
                link[1] = True
                return
        self.ready.append([sid, True])

    @rule()
    def attach(self):
        name = f"s{self.names}"
        self.names += 1
        if self.free:
            sid = self.free.pop()
        else:
            sid = self.capacity
            self.capacity += 1
            self.generation[sid] = 0
        session = _QueueSession(self, name)
        assert session.sid == sid
        self.live[name] = session
        self.queues[name] = deque()
        self.occupant[sid] = name
        self.offered[sid] = 0
        self.delivered[sid] = 0

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 63), items=st.integers(1, 3))
    def offer(self, pick, items):
        name = sorted(self.live)[pick % len(self.live)]
        session = self.live[name]
        for _ in range(items):
            session.queue.append(name)
            self.table.offered[session.sid] += 1
            self.table.enqueue_ready(session.sid)
            self.queues[name].append(name)
            self.offered[session.sid] += 1
            self._ref_enqueue(session.sid)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 63))
    def release(self, pick):
        name = sorted(self.live)[pick % len(self.live)]
        session = self.live.pop(name)
        self.table.release(session.sid)
        session.released = True
        del self.queues[name]
        del self.occupant[session.sid]
        self.free.append(session.sid)
        self.generation[session.sid] += 1
        for link in self.ready:
            if link[0] == session.sid:
                link[1] = False

    @rule()
    def pump(self):
        expected = []
        next_ready = []
        for sid, armed in self.ready:
            if not armed:
                continue
            name = self.occupant[sid]
            queue = self.queues[name]
            queue.popleft()
            self.delivered[sid] += 1
            expected.append(name)
            if queue:
                next_ready.append([sid, True])
        self.ready = next_ready
        visits = self.table.pump_visits
        self.visited = []
        self.sim.run(until=self.sim.now() + _TICK)
        assert self.visited == expected
        assert self.table.pump_visits - visits == len(expected)

    @invariant()
    def each_ready_session_visited_once_per_pump(self):
        assert len(self.visited) == len(set(self.visited))

    @invariant()
    def slots_match(self):
        assert self.table.capacity == self.capacity
        assert self.table.active == len(self.live)
        for sid in range(self.capacity):
            assert self.table.generation[sid] == self.generation[sid]
            name = self.occupant.get(sid)
            session = self.table._sessions[sid]
            assert (session and session.name) == name

    @invariant()
    def queues_match(self):
        for name, session in self.live.items():
            assert list(session.queue) == list(self.queues[name])

    @invariant()
    def totals_match(self):
        totals = self.table.totals()
        assert totals["offered"] == sum(self.offered.values())
        assert totals["delivered"] == sum(self.delivered.values())
        assert totals["coalesced"] == totals["dropped"] == 0


TestSessionTableModel = SessionTableMachine.TestCase
TestSessionTableModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
