"""Model-based testing of the Plan/Execute reconciler framework.

Two reconcilers share one :class:`ScopeTable` and observe the same
"actual state" (a shared set of corrupted scopes).  Hypothesis drives
arbitrary interleavings of corruption, Plan rounds from either
reconciler, and clock advances; the invariants encode the two promises
the framework makes:

- **CAS / single-writer**: a scope never carries two claims at once; a
  direct claim against a held scope returns ``None``; completing or
  failing an operation you do not own raises
  :class:`SingleWriterViolation`.
- **Level-triggered idempotence**: once the system settles, every
  corruption has been repaired exactly once, and further Plan rounds
  claim nothing (Plan/Execute twice is a no-op).
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st
import pytest

from repro.reconcile.framework import (
    OP_LATENCY,
    Reconciler,
    SingleWriterViolation,
)
from repro.sim.kernel import Simulation

SCOPES = ("s0", "s1", "s2", "s3")


class _SharedStateReconciler(Reconciler):
    """Reconciler over a shared 'actual state': the corrupted-scope set.

    Repair completes after ``OP_LATENCY`` on the sim clock, like the
    real reconcilers — so a claim stays held across interleaved rounds
    until the clock advances past the completion."""

    def __init__(self, sim, corrupted, **kwargs):
        super().__init__(sim, kwargs.pop("name"), **kwargs)
        self.corrupted = corrupted  # shared set instance

    def scopes(self):
        return SCOPES

    def plan(self, scope):
        return "repair" if scope in self.corrupted else None

    def execute(self, scope, record):
        op_id = record.op_id

        def done():
            self.corrupted.discard(scope)
            self.finish(scope, op_id, True)

        self.sim.call_after(OP_LATENCY, done)


class ReconcilerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulation(seed=3)
        self.corrupted = set()
        self.corruptions = 0
        self.r1 = _SharedStateReconciler(self.sim, self.corrupted, name="r1")
        self.r2 = _SharedStateReconciler(self.sim, self.corrupted, name="r2")
        # one scope table, as reconcilers sharing a status store have
        self.table = self.r2.table = self.r1.table

    # ------------------------------------------------------------------
    # rules: arbitrary interleavings of corruption, rounds, and time

    @rule(scope=st.sampled_from(SCOPES))
    def corrupt(self, scope):
        if scope not in self.corrupted:
            self.corrupted.add(scope)
            self.corruptions += 1

    @rule(who=st.sampled_from(("r1", "r2")))
    def run_round(self, who):
        getattr(self, who).run_round()

    @rule(dt=st.floats(min_value=0.05, max_value=2.0))
    def advance_time(self, dt):
        self.sim.run_for(dt)

    @rule(scope=st.sampled_from(SCOPES))
    def foreign_claim_loses_cas(self, scope):
        """A third party claiming a held scope must lose the CAS."""
        record = self.table.record(scope)
        if record.operation is not None:
            assert self.table.claim(
                scope, "repair", "intruder", now=self.sim.now()
            ) is None

    @rule(scope=st.sampled_from(SCOPES))
    def foreign_finish_is_rejected(self, scope):
        """Completing/failing someone else's op violates single-writer."""
        record = self.table.record(scope)
        if record.op_id is not None:
            with pytest.raises(SingleWriterViolation):
                self.table.complete(scope, record.op_id, "intruder")

    @precondition(lambda self: self.corrupted or any(
        r.operation is not None for r in self.table._records.values()
    ))
    @rule()
    def settle(self):
        """Run both loops to convergence, then prove idempotence."""
        while True:
            busy = self.r1.run_round() | self.r2.run_round()
            self.sim.run_for(1.0)
            if not busy:
                break
        assert not self.corrupted
        claims = self.table.claims
        self.r1.run_round()
        self.r2.run_round()
        assert self.table.claims == claims  # second pass plans nothing

    # ------------------------------------------------------------------
    # invariants

    @invariant()
    def one_repair_per_corruption(self):
        # every claim traces to one corruption; no double-repair ever
        assert self.table.claims <= self.corruptions
        assert self.r1.repairs + self.r2.repairs <= self.corruptions
        assert self.table.claims == (
            self.table.completions
            + sum(1 for r in self.table._records.values()
                  if r.operation is not None)
        )

    @invariant()
    def no_scope_double_claimed(self):
        for record in self.table._records.values():
            if record.operation is not None:
                assert record.owner in ("r1", "r2")
            else:
                assert record.owner is None and record.op_id is None

    @invariant()
    def accounting_balances(self):
        # ops never fail in this model: nothing parks in ERROR
        assert self.table.terminal_errors == 0
        assert self.r1.giveups == self.r2.giveups == 0


TestReconcilerModel = ReconcilerMachine.TestCase
TestReconcilerModel.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
