"""E14 scale gate: the edge tier's session ceiling vs E11, and the
micro-machinery (mass backoff timers on the kernel heap, shared drain)
that pays for it.

The headline assertion is the PR's bar: the same pipeline that E11
drives at 36 clients sustains >=10x the sessions *at equal delivery
p99* — not "still works, slower", but flat per-delivery latency while
the population scales two orders of magnitude.  The micro-benchmarks
pin the two mechanisms with exact-count assertions so the timing loops
measure provably identical work every run (see docs/scale.md).
"""

from conftest import run_once

from repro._types import KeyRange
from repro.edge.session import ClientSession, SessionConfig, Update
from repro.edge.session_table import SessionTable
from repro.bench.experiments import e11_edge_storm, e14_session_scale
from repro.bench.runner import sizing
from repro.sim.kernel import Simulation

#: E11's session count — the ceiling baseline the gate multiplies
_E11_SESSIONS = e11_edge_storm.DEFAULTS["num_clients"]

#: gate sizing: one small rung at exactly E11 scale, one at 100x,
#: identical in every other parameter so the p99 comparison is clean
_GATE = sizing(e14_session_scale, quick=True)
_GATE["rungs"] = ((_E11_SESSIONS, 0.2), (100 * _E11_SESSIONS, 0.2))
_GATE["lat_client_sample"] = 1  # measure every client at this size


def test_edge_scale_ceiling_10x_e11(benchmark):
    """>=10x E11's session count at equal (not merely similar) p99."""
    result = run_once(benchmark, e14_session_scale.run, _GATE)
    # conservation, p99 no worse at the large rung, O(active) shared
    # drain, storm recovery: E14's own claim shape
    e14_session_scale.check(result, _GATE)

    sweep = result.table("session sweep")
    base = sweep.row_by("sessions", _E11_SESSIONS)
    scaled = sweep.row_by("sessions", 100 * _E11_SESSIONS)
    # the ceiling bar on top of it: 100x the sessions (>=10x with
    # margin) at *equal* calm-phase delivery latency, and a storm that
    # scaled with the population
    assert scaled["sessions"] >= 10 * _E11_SESSIONS
    assert scaled["p50_ms"] == base["p50_ms"]
    assert scaled["reconnects"] >= 10 * base["reconnects"]


def test_timer_wheel_mass_backoff(benchmark):
    """60k staggered reconnect-style timers, half cancelled before
    firing — the storm-holdoff pattern.  The test keeps the name of the
    timer wheel it once gated; the timers are now plain heap entries,
    and the cancelled half is dropped by tombstone compaction."""

    def run():
        sim = Simulation(seed=3)
        fired = [0]

        def bump():
            fired[0] += 1

        handles = []
        for i in range(60_000):
            # backoffs spread over [1s, 31s) — all far, none zero-delay
            handles.append(sim.call_after(1.0 + (i % 3000) * 0.01, bump))
        for i, handle in enumerate(handles):
            if i % 2:
                handle.cancel()
        sim.run()
        assert sim.pending_events == 0
        return fired[0]

    assert benchmark(run) == 30_000


def test_shared_drain_idle_population(benchmark):
    """A 20k-session table where only 64 sessions are ever ready: pump
    cost tracks the ready set, the idle 19,936 sessions are never
    visited."""

    class _Greedy:
        def on_delivery(self, session, item):
            session.grant()

        def on_session_closed(self, session, reason):
            pass

    def run():
        sim = Simulation(seed=4)
        table = SessionTable(sim=sim, drain_interval=0.001)
        config = SessionConfig(initial_credits=4)
        sessions = [
            ClientSession(
                sim, f"s{i}", _Greedy(), KeyRange.all(),
                config=config, table=table,
            )
            for i in range(20_000)
        ]
        for round_ in range(100):
            for i in range(64):
                session = sessions[i * 311 % 20_000]
                session.offer(Update(
                    key=f"k{i:03d}", version=round_ * 64 + i + 1, value=i,
                ))
            sim.run()
        totals = table.totals()
        assert totals["offered"] == totals["delivered"] + totals["coalesced"]
        # every pump visit delivered for a ready session; idle sessions
        # never cost a visit
        assert table.pump_visits <= totals["delivered"]
        return totals["delivered"] + totals["coalesced"]

    assert benchmark(run) == 6_400
