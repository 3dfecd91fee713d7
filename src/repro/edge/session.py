"""Client sessions: credit-based flow control and slow-consumer policy.

A :class:`ClientSession` is the edge tier's unit of delivery — one
connected client on one frontend.  The frontend offers updates into the
session's bounded queue; the client grants *credits* as it finishes
processing, and the session delivers at most one queued item per credit.
A slow client therefore backs up its own session queue, never the
frontend's source feed — and what happens when that queue fills is the
session's **slow-consumer policy**, the knob the paper says separates
watch from pubsub delivery (§4.4, §3.2):

- ``coalesce`` — keep only the latest value per key.  Superseded
  updates are counted (and traced as ``edge.coalesce``) rather than
  delivered; the client converges to the same final state with a
  bounded queue (at most one entry per distinct key).  Watch-only by
  construction: pubsub contracts promise every message.
- ``bounded-buffer-drop`` — shed the oldest queued update, tracing
  ``edge.drop`` so loss provenance can attribute it ("dropped at
  edge").  This is the pubsub reality the paper criticizes: the client
  silently misses intermediate (and possibly final) values.
- ``disconnect`` — close the session on overflow; the client's durable
  cursor makes reconnect catch-up re-serve everything still queued.

Every offered update ends in exactly one bucket — delivered, coalesced,
dropped, returned-to-cursor (queued at close, re-servable via the
cursor), or still queued — so ``attributed == offered`` is an invariant
E11 asserts as its 100%-attribution acceptance bar.

Scale notes (E14, 100k-1M sessions; see ``docs/scale.md``): sessions
are ``__slots__``-only, conservation counters live in the shared
:class:`~repro.edge.session_table.SessionTable` columns indexed by the
session's slot id (read back here through properties), the queue is a
plain list with a head offset (an empty ``deque`` alone costs ~0.6KB),
the coalesce cell map is allocated only under the COALESCE policy, and
delivering the last queued item clears both, so a drained session holds
no item array and no grown hash table.
A closed session snapshots its counters into ``_final`` before
returning its slot, so post-close reads (EdgeClient folds counters at
close) still see them after the slot is recycled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from repro._types import Key, KeyRange, Version
from repro.edge.session_table import SessionTable
from repro.obs.trace import hops
from repro.sim.kernel import Simulation


class SlowConsumerPolicy(str, Enum):
    """What a session does when its bounded queue is full."""

    COALESCE = "coalesce"
    DROP = "bounded-buffer-drop"
    DISCONNECT = "disconnect"


@dataclass
class SessionConfig:
    """Per-session delivery parameters."""

    policy: SlowConsumerPolicy = SlowConsumerPolicy.COALESCE
    #: Queue bound the slow-consumer policy enforces.
    max_queue: int = 256
    #: Credits granted at connect; the client returns one per item it
    #: finishes processing, so at most this many deliveries are in
    #: flight at the client at once.
    initial_credits: int = 32
    #: Frontend -> client delivery latency per item.
    delivery_latency: float = 0.001
    #: COALESCE only: set False to queue every update instead of
    #: superseding queued entries per key.  Supersession is a *reorder*:
    #: the newer value takes the queue position of the update it
    #: replaced, jumping ahead of everything offered in between —
    #: including its own causal dependencies.  A causally gated
    #: frontend's sessions therefore need it off (order fidelity over
    #: the per-key queue bound); see docs/causal.md.
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.initial_credits < 1:
            raise ValueError("initial_credits must be >= 1")
        if self.delivery_latency < 0:
            raise ValueError("delivery_latency must be >= 0")


class Update:
    """One update offered to a session, from either pipeline.

    Watch updates carry the MVCC commit version; pubsub updates also
    carry their partition/offset so the client can advance its offset
    cursor.

    A ``__slots__`` value object rather than a frozen dataclass: the
    edge hot path builds one per fanned-out event, and the frozen
    dataclass's ``object.__setattr__``-per-field construction dominated
    the offer path at E14 scale.  Field set, construction signature,
    equality, and repr match the previous dataclass exactly.
    """

    __slots__ = ("key", "version", "value", "is_delete", "partition", "offset")

    def __init__(
        self,
        key: Key,
        version: Version,
        value: Any = None,
        is_delete: bool = False,
        partition: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> None:
        self.key = key
        self.version = version
        self.value = value
        self.is_delete = is_delete
        self.partition = partition
        self.offset = offset

    def _astuple(self):
        return (
            self.key, self.version, self.value,
            self.is_delete, self.partition, self.offset,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Update:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"Update(key={self.key!r}, version={self.version!r}, "
            f"value={self.value!r}, is_delete={self.is_delete!r}, "
            f"partition={self.partition!r}, offset={self.offset!r})"
        )


@dataclass(frozen=True)
class SnapshotDelivery:
    """A full re-serve of the session's range at one version."""

    version: Version
    items: Dict[Key, Any]


#: _final snapshot indices (set at close; see ClientSession.close)
_F_OFFERED, _F_DELIVERED, _F_COALESCED, _F_DROPPED = range(4)
_F_RETURNED, _F_SNAPSHOTS, _F_PEAK = 4, 5, 6

#: compact the queue's consumed head once it is this long and at least
#: half the list (amortized O(1); bounds a queue that never drains, as
#: draining it clears the list)
_QHEAD_COMPACT = 512


class ClientSession:
    """One connected client on one frontend: queue, credits, policy."""

    __slots__ = (
        "sim", "name", "client", "key_range", "config", "tracer",
        "table", "sid", "_shared", "_on_closed", "_policy", "_max_queue",
        "_delivery_latency", "_queue", "_qhead", "_cells", "credits",
        "_draining", "_active", "live", "expected_offsets",
        "_feed_handle", "_final",
    )

    def __init__(
        self,
        sim: Simulation,
        name: str,
        client,  # anything with on_delivery(session, item) / on_session_closed
        key_range: KeyRange,
        config: Optional[SessionConfig] = None,
        on_closed: Optional[Callable[["ClientSession", str], None]] = None,
        tracer=None,
        table: Optional[SessionTable] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.client = client
        self.key_range = key_range
        self.config = config or SessionConfig()
        self.tracer = tracer
        #: standalone sessions get a private table; frontends share one
        self.table = table if table is not None else SessionTable()
        self.sid = self.table.attach(self)
        self._shared = self.table.shared_drain
        self._on_closed = on_closed
        self._policy = self.config.policy
        self._max_queue = self.config.max_queue
        self._delivery_latency = self.config.delivery_latency
        #: queue entries are single-slot cells ``[Update]`` (so coalesce
        #: can swap in a newer value in place) or SnapshotDelivery;
        #: consumed entries are None'd behind ``_qhead``, and delivering
        #: the last entry clears the list (and ``_cells``)
        self._queue: List[object] = []
        self._qhead = 0
        #: COALESCE only: pending cell per key (None otherwise, or when
        #: the config disables supersession)
        self._cells: Optional[Dict[Key, List[Update]]] = (
            {}
            if self._policy is SlowConsumerPolicy.COALESCE
            and self.config.coalesce
            else None
        )
        self.credits = self.config.initial_credits
        self._draining = False
        self._active = True
        # frontend-managed delivery state (pubsub catch-up: the pubsub
        # frontend sets the per-partition offsets at connect)
        self.live = True
        self.expected_offsets: Optional[Dict[int, int]] = None
        self._feed_handle = None
        #: counters snapshot taken at close, before the slot is recycled
        self._final: Optional[tuple] = None

    # ------------------------------------------------------------------
    # producer side (frontends call these)

    def offer(self, update: Update) -> None:
        """Enqueue one update, applying the slow-consumer policy."""
        if not self._active:
            return
        table = self.table
        sid = self.sid
        table.offered[sid] += 1
        queue = self._queue
        cells = self._cells
        if cells is not None:
            cell = cells.get(update.key)
            if cell is not None:
                superseded = cell[0]
                cell[0] = update
                table.coalesced[sid] += 1
                if self.tracer is not None:
                    self.tracer.record(
                        hops.EDGE_COALESCE, self.name,
                        key=superseded.key, version=superseded.version,
                        session=self.name, superseded_by=update.version,
                    )
                return
        if len(queue) - self._qhead >= self._max_queue:
            if self._policy is SlowConsumerPolicy.DISCONNECT:
                # the triggering update was never queued; the client's
                # cursor has not passed it, so reconnect re-serves it
                table.returned[sid] += 1
                self.close("slow-consumer")
                return
            self._drop_oldest()
        cell = [update]
        queue.append(cell)
        if cells is not None:
            cells[update.key] = cell
        depth = len(queue) - self._qhead
        if depth > table.peak_queue[sid]:
            table.peak_queue[sid] = depth
        self._kick()

    def offer_snapshot(self, version: Version, items: Dict[Key, Any]) -> None:
        """Enqueue a full re-serve (not subject to the queue bound)."""
        if not self._active:
            return
        queue = self._queue
        queue.append(SnapshotDelivery(version, dict(items)))
        table = self.table
        depth = len(queue) - self._qhead
        if depth > table.peak_queue[self.sid]:
            table.peak_queue[self.sid] = depth
        self._kick()

    def _drop_oldest(self) -> None:
        # oldest *update* — a queued snapshot (only ever near the head)
        # is never shed, or the client's state would silently diverge
        queue = self._queue
        cells = self._cells
        for idx in range(self._qhead, len(queue)):
            item = queue[idx]
            if item.__class__ is SnapshotDelivery:
                continue
            victim = item[0]
            del queue[idx]
            if cells is not None and cells.get(victim.key) is item:
                del cells[victim.key]
            self.table.dropped[self.sid] += 1
            if self.tracer is not None:
                self.tracer.record(
                    hops.EDGE_DROP, self.name,
                    key=victim.key, version=victim.version,
                    session=self.name, policy=self._policy.value,
                )
            return

    # ------------------------------------------------------------------
    # consumer side (the client grants credits)

    def grant(self, credits: int = 1) -> None:
        """Return ``credits`` flow-control credits to the session."""
        if not self._active:
            return
        self.credits += credits
        self._kick()

    def _kick(self) -> None:
        if (
            self._active
            and self.credits > 0
            and len(self._queue) > self._qhead
        ):
            if self._shared:
                # O(active) shared drain: join the table's ready list;
                # the pump delivers one item per ready session per tick
                self.table.enqueue_ready(self.sid)
            elif not self._draining:
                self._draining = True
                self.sim.post(self._delivery_latency, self._deliver_next)

    def _deliver_next(self) -> None:
        self._draining = False
        queue = self._queue
        head = self._qhead
        if not self._active or self.credits <= 0 or len(queue) <= head:
            return
        item = queue[head]
        head += 1
        cells = self._cells
        if head == len(queue):
            # drained: give back the item array and the coalesce table
            # (it only ever indexes queued cells)
            queue.clear()
            head = 0
            if cells is not None:
                cells.clear()
        else:
            queue[head - 1] = None
            if head >= _QHEAD_COMPACT and head * 2 >= len(queue):
                del queue[:head]
                head = 0
        self._qhead = head
        self.credits -= 1
        table = self.table
        sid = self.sid
        if item.__class__ is SnapshotDelivery:
            table.snapshots[sid] += 1
            self.client.on_delivery(self, item)
        else:
            update = item[0]
            if cells is not None and cells.get(update.key) is item:
                del cells[update.key]
            table.delivered[sid] += 1
            if self.tracer is not None:
                self.tracer.record(
                    hops.EDGE_DELIVER, self.name,
                    key=update.key, version=update.version, session=self.name,
                )
            self.client.on_delivery(self, update)
        self._kick()

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def active(self) -> bool:
        return self._active

    def close(self, reason: str = "closed") -> None:
        """End the session; queued updates return to the cursor.

        The client's durable cursor has only advanced past *delivered*
        items, so everything still queued will be re-served by reconnect
        catch-up — closed sessions lose nothing.  Counters are
        snapshotted into ``_final`` and the table slot is released
        before the close callbacks run, so callbacks (EdgeClient folds
        totals here) read stable values even if the slot is reused by a
        reconnect inside the callback.
        """
        if not self._active:
            return
        self._active = False
        returned = self.queued_updates
        table = self.table
        sid = self.sid
        table.returned[sid] += returned
        self._final = (
            table.offered[sid], table.delivered[sid], table.coalesced[sid],
            table.dropped[sid], table.returned[sid], table.snapshots[sid],
            table.peak_queue[sid],
        )
        table.release(sid)
        self._queue.clear()
        self._qhead = 0
        if self._cells is not None:
            self._cells.clear()
        if self.tracer is not None:
            self.tracer.record(
                hops.EDGE_DISCONNECT, self.name,
                session=self.name, reason=reason, returned=returned,
            )
        if self._on_closed is not None:
            self._on_closed(self, reason)  # frontend bookkeeping first
        self.client.on_session_closed(self, reason)

    # ------------------------------------------------------------------
    # accounting (live sessions read table columns; closed read _final)

    @property
    def offered(self) -> int:
        f = self._final
        return f[_F_OFFERED] if f is not None else self.table.offered[self.sid]

    @property
    def delivered(self) -> int:
        f = self._final
        return f[_F_DELIVERED] if f is not None else self.table.delivered[self.sid]

    @property
    def coalesced(self) -> int:
        f = self._final
        return f[_F_COALESCED] if f is not None else self.table.coalesced[self.sid]

    @property
    def dropped(self) -> int:
        f = self._final
        return f[_F_DROPPED] if f is not None else self.table.dropped[self.sid]

    @property
    def returned_to_cursor(self) -> int:
        f = self._final
        return f[_F_RETURNED] if f is not None else self.table.returned[self.sid]

    @property
    def snapshots_delivered(self) -> int:
        f = self._final
        return f[_F_SNAPSHOTS] if f is not None else self.table.snapshots[self.sid]

    @property
    def peak_queue(self) -> int:
        f = self._final
        return f[_F_PEAK] if f is not None else self.table.peak_queue[self.sid]

    @property
    def queued_updates(self) -> int:
        """Updates queued but not yet delivered (snapshots excluded)."""
        queue = self._queue
        return sum(
            1 for i in range(self._qhead, len(queue))
            if queue[i].__class__ is not SnapshotDelivery
        )

    @property
    def attributed(self) -> int:
        """Updates accounted for by some outcome bucket.

        Conservation invariant: equals :attr:`offered` at all times —
        the basis of E11's 100%-attribution acceptance bar.
        """
        return (
            self.delivered
            + self.coalesced
            + self.dropped
            + self.returned_to_cursor
            + self.queued_updates
        )
