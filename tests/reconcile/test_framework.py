"""Tests for the generic Plan/Execute reconciler framework."""

import pytest

from repro.obs import TraceIndex, Tracer
from repro.obs.trace import hops
from repro.reconcile import framework
from repro.reconcile.framework import (
    OP_LATENCY,
    RETRY,
    Reconciler,
    ScopeTable,
    SingleWriterViolation,
)
from repro.resilience.retry import RetryPolicy
from repro.sim.kernel import Simulation


class FakeReconciler(Reconciler):
    """Scripted reconciler: diverged scopes repair after op_latency."""

    def __init__(self, sim, diverged, fail_scopes=(), hang_scopes=(), **kwargs):
        super().__init__(sim, kwargs.pop("name", "fake"), **kwargs)
        # a set instance is shared as-is so two reconcilers can observe
        # the same "actual state" (as real ones do)
        self.diverged = diverged if isinstance(diverged, set) else set(diverged)
        self.fail_scopes = set(fail_scopes)
        self.hang_scopes = set(hang_scopes)
        self.executed = []

    def scopes(self):
        return sorted(self.diverged | self.fail_scopes | self.hang_scopes | {"healthy"})

    def plan(self, scope):
        if scope in self.diverged | self.fail_scopes | self.hang_scopes:
            return "repair"
        return None

    def execute(self, scope, record):
        self.executed.append((scope, record.op_id))
        if scope in self.hang_scopes:
            return  # never completes: the timeout path must fire
        op_id = record.op_id

        def done():
            if scope in self.fail_scopes:
                self.finish(scope, op_id, False, error="boom")
            else:
                self.diverged.discard(scope)
                self.finish(scope, op_id, True)

        self.sim.call_after(OP_LATENCY, done)


class TestScopeTable:
    def test_claim_is_cas(self):
        table = ScopeTable()
        first = table.claim("s", "repair", "a", now=0.0)
        assert first is not None and first.owner == "a"
        assert table.claim("s", "repair", "b", now=0.0) is None
        assert table.claims == 1 and table.cas_rejects == 1

    def test_complete_releases_claim(self):
        table = ScopeTable()
        record = table.claim("s", "repair", "a", now=0.0)
        record.op_id = table.mint_op_id("s")
        table.complete("s", record.op_id, "a")
        assert table.record("s").operation is None
        assert table.claim("s", "repair", "b", now=1.0) is not None

    def test_single_writer_on_complete(self):
        table = ScopeTable()
        record = table.claim("s", "repair", "a", now=0.0)
        record.op_id = table.mint_op_id("s")
        with pytest.raises(SingleWriterViolation):
            table.complete("s", record.op_id, "b")
        with pytest.raises(SingleWriterViolation):
            table.complete("s", "s#999", "a")

    def test_single_writer_on_fail(self):
        table = ScopeTable()
        record = table.claim("s", "repair", "a", now=0.0)
        record.op_id = table.mint_op_id("s")
        with pytest.raises(SingleWriterViolation):
            table.fail("s", record.op_id, "b", 0.0, RetryPolicy(), None)

    def test_retry_budget_parks_in_error(self):
        table = ScopeTable()
        retry = RetryPolicy(base_delay=0.1, jitter=0.0, max_attempts=2)
        record = table.claim("s", "repair", "a", now=0.0)
        record.attempts = 1
        record.op_id = table.mint_op_id("s")
        assert not table.fail("s", record.op_id, "a", 0.0, retry, None)
        record.attempts = 2
        assert table.fail("s", record.op_id, "a", 1.0, retry, None)
        assert table.record("s").terminal_error is not None
        # parked scopes reject further claims until cleared
        assert table.claim("s", "repair", "a", now=2.0) is None
        table.clear_error("s")
        assert table.claim("s", "repair", "a", now=3.0) is not None


class TestReconcilerLoop:
    def test_repairs_diverged_scopes_and_converges(self):
        sim = Simulation(seed=1)
        r = FakeReconciler(sim, diverged={"a", "b"})
        r.start()
        sim.run(until=5.0)
        assert r.repairs == 2 and not r.diverged
        assert (r.idle_rounds >= 1) and r.idle_rounds > 0

    def test_second_pass_is_noop(self):
        # level-triggered idempotence: once repaired, plan() sees a
        # legal scope and the loop claims nothing more
        sim = Simulation(seed=1)
        r = FakeReconciler(sim, diverged={"a"})
        r.start()
        sim.run(until=5.0)
        planned = r.planned
        sim.run(until=10.0)
        assert r.planned == planned == 1
        assert r.table.claims == 1

    def test_failed_op_retries_then_gives_up(self):
        sim = Simulation(seed=1)
        r = FakeReconciler(sim, diverged=set(), fail_scopes={"bad"})
        r.start()
        sim.run(until=10.0)
        assert len(r.executed) == RETRY.max_attempts
        assert r.giveups == 1
        assert r.table.record("bad").terminal_error == "boom"
        # terminal scopes are skipped forever after
        executed = len(r.executed)
        sim.run(until=20.0)
        assert len(r.executed) == executed

    def test_hung_op_times_out(self, monkeypatch):
        monkeypatch.setattr(framework, "OP_TIMEOUT", 1.0)
        sim = Simulation(seed=1)
        r = FakeReconciler(sim, diverged=set(), hang_scopes={"hung"})
        r.start()
        sim.run(until=15.0)
        assert r.timeouts >= 1
        assert r.table.record("hung").terminal_error == "timeout"

    def test_stale_finish_is_dropped(self):
        sim = Simulation(seed=1)
        r = FakeReconciler(sim, diverged={"a"})
        r.start()
        sim.run(until=5.0)
        r.finish("a", "a#1", True)  # op already completed: stale echo
        assert r.stale_finishes == 1
        assert r.repairs == 1

    def test_two_reconcilers_never_double_claim(self):
        sim = Simulation(seed=1)
        shared = {"s"}
        first = FakeReconciler(sim, diverged=shared, name="r1")
        second = FakeReconciler(sim, diverged=shared, name="r2")
        table = second.table = first.table
        # same tick: both plan the same diverged scope in one round
        first.start()
        second.start()
        sim.run(until=0.6)
        # only one claim lands; the loser observes the held claim and
        # backs off (it never even attempts a double-claim)
        assert table.claims == 1
        sim.run(until=5.0)
        # exactly one of them repaired it
        assert first.repairs + second.repairs == 1

    def test_traces_plan_and_repair_hops(self):
        sim = Simulation(seed=1)
        tracer = Tracer(sim)
        r = FakeReconciler(sim, diverged={"a"}, tracer=tracer)
        r.start()
        sim.run(until=5.0)
        recorded = [event.hop for event in tracer.log]
        assert hops.RECONCILE_PLAN in recorded
        assert hops.RECONCILE_REPAIR in recorded
        summary = TraceIndex(tracer.log).repair_summary()
        assert summary["repairs"] == 1
