"""Slot-based session table: the edge tier's million-session backbone.

At E11 scale (~40 clients) per-object sessions with ordinary attribute
dicts are fine.  At E14 scale (100k-1M sessions) three per-session
costs dominate, and this module removes all of them:

- **Object memory.**  Sessions register here and get a dense integer
  *slot id* (``sid``).  All conservation counters live in parallel
  ``array('q')`` columns indexed by sid — eight machine words per
  session instead of eight boxed-int attribute entries — and the
  :class:`~repro.edge.session.ClientSession` objects themselves are
  ``__slots__``-only.  Slots are recycled through a LIFO freelist with
  a generation counter, so a run with heavy churn keeps the table at
  peak-concurrent size, not total-connects size.
- **Aggregate accounting.**  E14 must assert conservation
  (``offered == delivered + coalesced + dropped + returned + queued``)
  across half a million sessions; :meth:`totals` sums the columns in C
  instead of walking Python objects.
- **Drain scheduling.**  In the default (per-session) mode every ready
  session posts its own delivery event.  In *shared-drain* mode the
  table keeps an intrusive ready list — a linked list threaded through
  a ``sid -> next sid`` array — and one pump event per tick delivers
  one item for every ready session.  Cost per tick is O(active
  sessions with queued items and credits); idle sessions are never
  visited, enqueue/dequeue are O(1), and membership is one byte per
  slot.

The table also owns the per-session *trace sampling* decision (see
``repro.obs.trace.TraceSampler``): at 1M sessions, tracing every
delivery would dominate memory, so sessions whose sid is not sampled
run with ``tracer=None`` and skip every tracing branch entirely.

Determinism: the ready list is FIFO in kick order and the pump walks it
in that order, so shared-drain runs are exactly reproducible; the
default mode's event schedule is byte-identical to the pre-table
implementation (E11's determinism suite asserts this).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional

from repro.obs.trace import TraceSampler

_NO_SID = -1

# Ready-list link states (values in the ``_in_ready`` bytearray).  A
# slot released while still linked keeps its physical link (the list is
# singly linked; unlinking in ``release`` would be O(chain)) but is
# disarmed, and ``enqueue_ready`` re-arms it in place rather than
# linking it a second time — a second link would either self-cycle (when
# the slot is the stale tail) or truncate the chain behind it.
_UNLINKED = 0
_LINKED_ARMED = 1
_LINKED_STALE = 2


class SessionTable:
    """Dense slot table for :class:`~repro.edge.session.ClientSession`s."""

    __slots__ = (
        "sim", "drain_interval", "sampler",
        "_sessions", "_free", "generation",
        "offered", "delivered", "coalesced", "dropped", "returned",
        "snapshots", "peak_queue",
        "_ready_next", "_in_ready", "_ready_head", "_ready_tail",
        "_pump_scheduled", "active", "pump_runs",
        "pump_visits",
    )

    def __init__(
        self,
        sim=None,
        drain_interval: Optional[float] = None,
        sampler: Optional[TraceSampler] = None,
    ) -> None:
        if drain_interval is not None:
            if sim is None:
                raise ValueError("shared drain needs the simulation")
            if drain_interval < 0:
                raise ValueError("drain_interval must be >= 0")
        self.sim = sim
        #: None -> per-session drain events (the default); a float ->
        #: shared-drain mode, one pump event per tick of this length
        self.drain_interval = drain_interval
        self.sampler = sampler or TraceSampler()
        self._sessions: List[Any] = []
        self._free: List[int] = []  # LIFO: hottest slot first
        #: bumped when a slot is released; detached sessions keep their
        #: (sid, generation) so stale handles are detectable
        self.generation = array("q")
        # conservation columns, indexed by sid
        self.offered = array("q")
        self.delivered = array("q")
        self.coalesced = array("q")
        self.dropped = array("q")
        self.returned = array("q")
        self.snapshots = array("q")
        self.peak_queue = array("q")
        # intrusive ready list (shared-drain mode)
        self._ready_next = array("q")
        self._in_ready = bytearray()
        self._ready_head = _NO_SID
        self._ready_tail = _NO_SID
        self._pump_scheduled = False
        self.active = 0
        self.pump_runs = 0
        self.pump_visits = 0

    # ------------------------------------------------------------------
    # slot lifecycle

    def attach(self, session) -> int:
        """Claim a slot for ``session``; returns its sid."""
        self.active += 1
        free = self._free
        if free:
            sid = free.pop()
            self._sessions[sid] = session
            self.offered[sid] = 0
            self.delivered[sid] = 0
            self.coalesced[sid] = 0
            self.dropped[sid] = 0
            self.returned[sid] = 0
            self.snapshots[sid] = 0
            self.peak_queue[sid] = 0
            return sid
        sid = len(self._sessions)
        self._sessions.append(session)
        self.generation.append(0)
        self.offered.append(0)
        self.delivered.append(0)
        self.coalesced.append(0)
        self.dropped.append(0)
        self.returned.append(0)
        self.snapshots.append(0)
        self.peak_queue.append(0)
        self._ready_next.append(_NO_SID)
        self._in_ready.append(0)
        return sid

    def release(self, sid: int) -> None:
        """Return a slot to the freelist (the session closed).

        A slot released while physically linked on the ready list stays
        linked (state 2, disarmed) until the pump walks past it — the
        list is singly linked, so unlinking here would cost O(chain).
        ``enqueue_ready`` knows never to re-link a still-linked slot,
        which is what makes close-then-immediate-reuse (a reconnect
        storm's hot path) safe.
        """
        self._sessions[sid] = None
        self.generation[sid] += 1
        if self._in_ready[sid]:
            self._in_ready[sid] = _LINKED_STALE
        self._free.append(sid)
        self.active -= 1

    @property
    def capacity(self) -> int:
        """Slots ever allocated (peak concurrency under reuse)."""
        return len(self._sessions)

    # ------------------------------------------------------------------
    # shared drain: intrusive ready list + single pump event

    @property
    def shared_drain(self) -> bool:
        return self.drain_interval is not None

    def enqueue_ready(self, sid: int) -> None:
        """Link a session into the ready list (idempotent, O(1)).

        A sid still physically linked (armed, or stale from a released
        slot the pump has not walked past yet) is re-armed in place: the
        pending chain will reach it, and linking it again would corrupt
        the list.
        """
        if self._in_ready[sid]:
            self._in_ready[sid] = _LINKED_ARMED
            return
        self._in_ready[sid] = _LINKED_ARMED
        self._ready_next[sid] = _NO_SID
        if self._ready_tail == _NO_SID:
            self._ready_head = sid
        else:
            self._ready_next[self._ready_tail] = sid
        self._ready_tail = sid
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.sim.post(self.drain_interval, self._pump, label="edge:pump")

    def _pump(self) -> None:
        """Deliver one item for every ready session, in kick order.

        Sessions that stay ready (more queue, more credits) re-enqueue
        themselves onto the *next* tick's list via their ``_kick``; the
        first re-enqueue schedules that tick's pump.
        """
        self._pump_scheduled = False
        self.pump_runs += 1
        head = self._ready_head
        self._ready_head = _NO_SID
        self._ready_tail = _NO_SID
        ready_next = self._ready_next
        in_ready = self._in_ready
        sessions = self._sessions
        sid = head
        visits = 0
        while sid != _NO_SID:
            nxt = ready_next[sid]
            state = in_ready[sid]
            if state:
                in_ready[sid] = _UNLINKED
                if state == _LINKED_ARMED:
                    visits += 1
                    session = sessions[sid]
                    if session is not None:
                        session._deliver_next()
            sid = nxt
        self.pump_visits += visits

    # ------------------------------------------------------------------
    # aggregate accounting (C-speed column sums)

    def totals(self) -> Dict[str, int]:
        """Lifetime column sums over every slot (live and released).

        Released slots are zeroed at re-attach, not at release, so the
        sums include closed sessions that have not been recycled yet;
        callers that need exact lifetime totals across churn should
        fold per-session counters at close time (EdgeClient does).
        """
        return {
            "offered": sum(self.offered),
            "delivered": sum(self.delivered),
            "coalesced": sum(self.coalesced),
            "dropped": sum(self.dropped),
            "returned": sum(self.returned),
            "snapshots": sum(self.snapshots),
        }
