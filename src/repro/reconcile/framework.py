"""The generic Plan/Execute reconciler: level-triggered repair loops.

The control-loop shape follows the reconciler spec the related work
documents (and Kubernetes-style controllers generally):

- **Plan** — on every tick, observe *actual vs desired* per scope.  A
  scope found diverged gets exactly one operation claimed against it
  via an optimistic-concurrency CAS (the ``WHERE operation = 'NONE'``
  idiom): a second reconciler planning the same scope in the same
  window loses the race and backs off instead of double-repairing.
- **Execute** — the claimed operation runs asynchronously with a
  per-attempt deadline; failures retry on a bounded
  :class:`~repro.resilience.retry.RetryPolicy` schedule, and an
  exhausted budget parks the scope in a terminal ERROR state (skipped
  until an operator clears it).  Status columns (operation, op id,
  owner, attempts) are single-writer: only the claiming reconciler may
  complete or fail its own operation.

Because the loop is *level*-triggered — it looks at state, not at an
event stream — it repairs divergence of **arbitrary** origin: missed
events, torn maps, forged cursors, state mutated behind the system's
back.  That is the self-stabilization property E13 measures: from any
corrupted state, a bounded number of rounds returns the system to a
legal one.  Subclasses provide three methods::

    scopes()              -> iterable of scope names (stable order)
    plan(scope)           -> None (legal) | op | (op, detail_dict)
    execute(scope, record) -> starts the repair; must eventually call
                              finish(scope, record.op_id, ok)

Everything runs on the simulation clock; tracing emits ``reconcile.*``
control events so :meth:`~repro.obs.index.TraceIndex.repair_summary`
can attribute every repair to the corruption it fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.obs.trace import hops
from repro.resilience.retry import RetryPolicy
from repro.sim.kernel import Simulation

#: what plan() may return: legal / an op kind / an op kind plus detail
PlanResult = Union[None, str, Tuple[str, Dict[str, Any]]]


class SingleWriterViolation(RuntimeError):
    """A reconciler touched an operation it does not own."""


#: seconds between Plan rounds
TICK = 0.5
#: per-*attempt* execution deadline; an attempt still running this long
#: after launch is failed (and retried or parked in ERROR)
OP_TIMEOUT = 5.0
#: simulated latency of one execute attempt (subclasses use it to
#: schedule their completion)
OP_LATENCY = 0.02
#: bounded retries at a fixed interval (no jitter: reconcile schedules
#: replay deterministically)
RETRY = RetryPolicy(
    base_delay=0.5, multiplier=1.0, max_delay=0.5, jitter=0.0, max_attempts=3,
)


@dataclass
class ScopeRecord:
    """Single-writer status row for one scope.

    ``operation is None`` means the scope has no pending work (the
    'NONE' state the CAS claims against); ``terminal_error`` set means
    the scope is parked in ERROR and skipped until cleared."""

    scope: str
    operation: Optional[str] = None
    op_id: Optional[str] = None
    owner: Optional[str] = None
    op_started_at: float = 0.0
    attempts: int = 0
    retry_at: float = 0.0
    running: bool = False
    terminal_error: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)


class ScopeTable:
    """Shared status table: one record per scope, CAS-claimed ops.

    Multiple reconcilers may share one table (the concurrency the CAS
    exists for); the claim is the only mutation that races, and it is
    atomic by construction — everything runs on the single-threaded sim
    kernel, so 'atomic' means 'check and set in one call'.
    """

    def __init__(self) -> None:
        self._records: Dict[str, ScopeRecord] = {}
        self._next_op = 0
        self.claims = 0
        self.cas_rejects = 0
        self.completions = 0
        self.terminal_errors = 0

    def record(self, scope: str) -> ScopeRecord:
        record = self._records.get(scope)
        if record is None:
            record = self._records[scope] = ScopeRecord(scope)
        return record

    def mint_op_id(self, scope: str) -> str:
        """A fresh per-attempt operation id (stale async completions
        carrying an old id are ignored)."""
        self._next_op += 1
        return f"{scope}#{self._next_op}"

    def claim(
        self,
        scope: str,
        operation: str,
        owner: str,
        now: float,
        detail: Optional[Dict[str, Any]] = None,
    ) -> Optional[ScopeRecord]:
        """CAS-claim ``operation`` on ``scope``; None if already held.

        The optimistic lock: succeeds only when the record's operation
        column is 'NONE' (and the scope is not parked in ERROR)."""
        record = self.record(scope)
        if record.operation is not None or record.terminal_error is not None:
            self.cas_rejects += 1
            return None
        record.operation = operation
        record.op_id = None  # minted per attempt at launch
        record.owner = owner
        record.op_started_at = now
        record.attempts = 0
        record.retry_at = now
        record.running = False
        record.detail = dict(detail or {})
        self.claims += 1
        return record

    def complete(self, scope: str, op_id: str, owner: str) -> None:
        """Operation done and verified: back to 'NONE' (single-writer)."""
        record = self.record(scope)
        if record.op_id != op_id or record.owner != owner:
            raise SingleWriterViolation(
                f"{owner!r} completing {op_id!r} on {scope!r} held by "
                f"{record.owner!r} as {record.op_id!r}"
            )
        record.operation = None
        record.op_id = None
        record.owner = None
        record.running = False
        record.detail = {}
        self.completions += 1

    def fail(
        self,
        scope: str,
        op_id: str,
        owner: str,
        now: float,
        retry: RetryPolicy,
        rng,
        error: str = "failed",
    ) -> bool:
        """Record a failed attempt; returns True when the scope is now
        parked in terminal ERROR (retry budget exhausted)."""
        record = self.record(scope)
        if record.op_id != op_id or record.owner != owner:
            raise SingleWriterViolation(
                f"{owner!r} failing {op_id!r} on {scope!r} held by "
                f"{record.owner!r} as {record.op_id!r}"
            )
        record.running = False
        max_attempts = retry.max_attempts
        if max_attempts is not None and record.attempts >= max_attempts:
            record.terminal_error = error
            self.terminal_errors += 1
            return True
        record.retry_at = now + retry.backoff(max(record.attempts, 1), rng)
        return False

    def clear_error(self, scope: str) -> None:
        """Operator override: un-park an ERROR scope (resets the claim)."""
        record = self.record(scope)
        record.terminal_error = None
        record.operation = None
        record.op_id = None
        record.owner = None
        record.running = False
        record.attempts = 0
        record.detail = {}


class Reconciler:
    """The level-triggered Plan/Execute loop (subclass per domain)."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.table = ScopeTable()
        self.tracer = tracer
        self.rounds = 0
        self.planned = 0
        self.repairs = 0
        self.cas_rejects = 0
        self.timeouts = 0
        self.giveups = 0
        self.stale_finishes = 0
        #: consecutive rounds in which every scope planned legal and no
        #: operation (ours or anyone's) was pending
        self.idle_rounds = 0
        self._running = False

    # ------------------------------------------------------------------
    # loop

    def start(self) -> None:
        """Begin ticking on the sim clock (first round after one tick)."""
        if self._running:
            return
        self._running = True
        self.sim.call_after(TICK, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self.run_round()
        self.sim.call_after(TICK, self._tick)

    def run_round(self) -> bool:
        """One Plan pass over every scope; returns True if any scope was
        diverged or had an operation pending (i.e. not yet converged)."""
        self.rounds += 1
        now = self.sim.now()
        busy = False
        for scope in self.scopes():
            record = self.table.record(scope)
            if record.terminal_error is not None:
                continue  # ERROR is terminal: skip until cleared
            if record.operation is not None:
                busy = True
                if record.owner != self.name:
                    continue  # non-preemptive: another reconciler holds it
                if record.running:
                    if now - record.op_started_at >= OP_TIMEOUT:
                        self.timeouts += 1
                        self._trace(hops.RECONCILE_TIMEOUT, record)
                        self._fail(scope, record, error="timeout")
                    continue  # attempt in flight (or just failed)
                if now >= record.retry_at:
                    self._launch(scope, record)
                continue
            wanted = self.plan(scope)
            if wanted is None:
                continue
            busy = True
            operation, detail = (
                wanted if isinstance(wanted, tuple) else (wanted, None)
            )
            record = self.table.claim(scope, operation, self.name, now, detail)
            if record is None:
                # lost the CAS race to a concurrent reconciler
                self.cas_rejects += 1
                self._trace(hops.RECONCILE_CAS_REJECT, self.table.record(scope))
                continue
            self.planned += 1
            self._trace(hops.RECONCILE_PLAN, record)
            self._launch(scope, record)
        self.idle_rounds = 0 if busy else self.idle_rounds + 1
        return busy

    # ------------------------------------------------------------------
    # execution plumbing

    def _launch(self, scope: str, record: ScopeRecord) -> None:
        record.attempts += 1
        record.op_id = self.table.mint_op_id(scope)
        record.op_started_at = self.sim.now()
        record.running = True
        self.execute(scope, record)

    def finish(self, scope: str, op_id: str, ok: bool, **attrs: Any) -> None:
        """Async completion callback for :meth:`execute` attempts.

        A completion whose op id no longer matches the record (the
        attempt timed out and was superseded) is dropped."""
        record = self.table.record(scope)
        if record.op_id != op_id or record.owner != self.name or not record.running:
            self.stale_finishes += 1
            return
        if ok:
            self._trace(hops.RECONCILE_REPAIR, record, **attrs)
            self.table.complete(scope, op_id, self.name)
            self.repairs += 1
        else:
            self._fail(scope, record, error=str(attrs.get("error", "failed")))

    def _fail(self, scope: str, record: ScopeRecord, error: str) -> None:
        terminal = self.table.fail(
            scope, record.op_id, self.name, self.sim.now(),
            RETRY, self.sim.rng, error=error,
        )
        if terminal:
            self.giveups += 1
            self._trace(hops.RECONCILE_GIVEUP, record, error=error)

    def _trace(self, hop: str, record: ScopeRecord, **attrs: Any) -> None:
        if self.tracer is not None:
            self.tracer.record(
                hop, self.name,
                scope=record.scope, op=record.operation,
                op_id=record.op_id, attempt=record.attempts,
                round=self.rounds, **attrs,
            )
