"""Edge/placement reconciler: sessions, reconnect cursors, assignments.

Three legality invariants, one scope each:

``placement``
    The installed :class:`~repro.sharding.assignment.Assignment` must
    carry the sharder's own generation stamp.  A mismatch means the map
    was forged or replaced behind the sharder's back; the repair is
    :meth:`~repro.sharding.autosharder.AutoSharder.reinstall` — re-stamp
    the current slices as a fresh generation so every listener
    re-converges on an authoritative map.
``edge/<client>`` — cursor violation
    A client's durable reconnect cursor must not exceed the source
    head.  A forged-future cursor makes every delta catch-up silently
    skip the gap, so the repair is
    :meth:`~repro.edge.client.EdgeClient.force_resync`: throw the
    cursor and local state away and rebuild from a snapshot.
``edge/<client>`` — orphaned session
    A session the client believes is live must be fed by some frontend.
    A half-open session (active, but absent from every frontend's
    session map) delivers nothing forever; the repair closes it so the
    client's normal reconnect path re-homes it.

Like the anti-entropy reconciler this is level-triggered: it looks at
the state every tick, not at any event stream, so it catches
corruption no failure notification would ever report.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.reconcile.framework import (
    PlanResult,
    OP_LATENCY,
    Reconciler,
    ScopeRecord,
)
from repro.sim.kernel import Simulation


class EdgeReconciler(Reconciler):
    """Level-triggered repair of edge sessions, cursors and placement."""

    def __init__(
        self,
        sim: Simulation,
        clients: Sequence,                      # EdgeClient
        frontends: Sequence,                    # WatchEdgeFrontend
        head_fn: Callable[[], int],             # authoritative head version
        sharder=None,                           # AutoSharder (optional)
        name: str = "edge-reconciler",
        tracer=None,
    ) -> None:
        super().__init__(sim, name, tracer=tracer)
        self.clients = list(clients)
        self.frontends = list(frontends)
        self.head_fn = head_fn
        self.sharder = sharder
        self._by_name = {client.name: client for client in self.clients}
        self.resyncs = 0
        self.rehomes = 0
        self.reinstalls = 0

    def scopes(self) -> List[str]:
        names: List[str] = []
        if self.sharder is not None:
            names.append("placement")
        names.extend(f"edge/{client.name}" for client in self.clients)
        return names

    # ------------------------------------------------------------------
    # Plan

    def plan(self, scope: str) -> PlanResult:
        if scope == "placement":
            return self._plan_placement()
        return self._plan_client(self._by_name[scope.split("/", 1)[1]])

    def _plan_placement(self) -> PlanResult:
        if self.sharder.assignment.generation != self.sharder.generation:
            return ("reinstall", {
                "installed": self.sharder.assignment.generation,
                "expected": self.sharder.generation,
            })
        return None

    def _plan_client(self, client) -> PlanResult:
        if client.stopped:
            return None
        if client.cursor > self.head_fn():
            return ("resync", {"cursor": client.cursor})
        session = client.session
        if session is not None and session.active and self._half_open(client, session):
            return "rehome"
        return None

    def _half_open(self, client, session) -> bool:
        """True when no frontend's session map feeds this session."""
        return not any(
            frontend.sessions.get(client.name) is session
            for frontend in self.frontends
        )

    # ------------------------------------------------------------------
    # Execute

    def execute(self, scope: str, record: ScopeRecord) -> None:
        op_id = record.op_id
        operation = record.operation

        def repair() -> None:
            if operation == "reinstall":
                assignment = self.sharder.reinstall()
                self.reinstalls += 1
                self.finish(scope, op_id, True, generation=assignment.generation)
                return
            client = self._by_name[scope.split("/", 1)[1]]
            if operation == "resync":
                client.force_resync()
                self.resyncs += 1
                self.finish(scope, op_id, True, client=client.name)
            elif operation == "rehome":
                session = client.session
                if session is not None and session.active:
                    session.close("reconcile-rehome")
                self.rehomes += 1
                self.finish(scope, op_id, True, client=client.name)
            else:  # pragma: no cover - plan() only emits the ops above
                self.finish(scope, op_id, False, error=f"unknown op {operation}")

        self.sim.call_after(OP_LATENCY, repair)
