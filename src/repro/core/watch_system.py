"""A standalone watch system — the paper's *Snappy*, from its contracts.

The watch system sits between a store and its watchers (Figure 4):

- the store (or a bridge tailing its history) feeds it change events
  and range-scoped progress events through the :class:`Ingester`
  interface (§4.2.2);
- watchers attach through :class:`Watchable` and receive events,
  progress, and resync signals (§4.2.1).

Everything here is **soft state** (§4.2.2): a bounded in-memory buffer
of recent events plus per-range progress marks.  Two behaviours follow,
both central to the paper's argument:

- *bounded retention with notification*: when a watcher asks to start
  below the retained floor — or falls so far behind that its start
  position is evicted — it receives ``on_resync`` and recovers from a
  store snapshot.  Nothing is ever lost silently (contrast §3.1).
- *deletability*: :meth:`wipe` destroys all soft state at any moment;
  every watcher is resynced and the system rebuilds from the store
  "at the expense of some increased latency or staleness, but there is
  no data or consistency loss" (§4.2.2).  Experiment E8 exercises this.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro._types import Key, KeyRange, Version, VERSION_ZERO
from repro.core.api import Cancellable, Ingester, Watchable, WatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import WatcherConfig, WatcherSession
from repro.obs.trace import hops
from repro.sim.kernel import Simulation
from repro.sim.metrics import Counter, MetricsRegistry

_event_version = attrgetter("version")

#: sentinel: watch_range(tracer=...) default meaning "inherit"
_SYSTEM_TRACER = object()

#: Buffer-eviction bookkeeping uses a head offset instead of pops; the
#: dead prefix is compacted away once it crosses this length *and*
#: outgrows the live tail, keeping eviction amortized O(1).
_BUFFER_COMPACT_MIN = 8192


@dataclass
class WatchSystemConfig:
    """Soft-state sizing and default delivery parameters."""

    #: Maximum buffered change events; the oldest are evicted beyond
    #: this, raising the retained floor.
    max_buffered_events: int = 100_000
    watcher_defaults: WatcherConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.max_buffered_events < 1:
            raise ValueError("max_buffered_events must be >= 1")
        if self.watcher_defaults is None:
            self.watcher_defaults = WatcherConfig()


class _SessionSet:
    """Insertion-ordered watcher set: O(1) add/discard, list-speed iteration.

    Iteration order is registration order — identical to the plain list
    these registries once were — but removal is O(1), which a reconnect
    storm needs (tens of thousands of closes against a 100k+ registry
    made ``list.remove`` quadratic).  Iteration walks a cached tuple
    rebuilt lazily after a mutation: the ingest hot loop pays tuple
    speed rather than dict-key speed, and the rebuild costs no more
    than the iteration that triggered it.
    """

    __slots__ = ("_members", "_snap")

    def __init__(self) -> None:
        self._members: Dict[WatcherSession, None] = {}
        self._snap: Optional[Tuple[WatcherSession, ...]] = ()

    def add(self, session: WatcherSession) -> None:
        self._members[session] = None
        self._snap = None

    def discard(self, session: WatcherSession) -> None:
        if session in self._members:
            del self._members[session]
            self._snap = None

    def __contains__(self, session: object) -> bool:
        return session in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __iter__(self) -> Iterator[WatcherSession]:
        snap = self._snap
        if snap is None:
            snap = self._snap = tuple(self._members)
        return iter(snap)


class WatchSystem(Watchable, Ingester):
    """Soft-state fan-out layer between a store and many watchers."""

    def __init__(
        self,
        sim: Simulation,
        config: Optional[WatchSystemConfig] = None,
        name: str = "watchsys",
        tracer=None,
    ) -> None:
        self.sim = sim
        self.config = config or WatchSystemConfig()
        self.metrics = MetricsRegistry()
        self.name = name
        self.tracer = tracer
        self._session_seq = 0  # deterministic per-session trace labels
        #: buffered events in ingest order (version order within any
        #: one ingest range, by the Ingester contract); ``_buf_head``
        #: marks the retained start — eviction advances it instead of
        #: popping, and the dead prefix is compacted periodically
        self._buffer: List[ChangeEvent] = []
        self._buf_head = 0
        #: True while the buffer is globally nondecreasing in version —
        #: the single-ingest-range common case — enabling the bisect
        #: catch-up in :meth:`watch`
        self._buf_sorted = True
        #: versions <= this may have been evicted from the buffer (or
        #: never ingested, for the pre-start window)
        self._floor: Version = VERSION_ZERO
        #: latest progress mark per exact ingested range
        self._progress_marks: Dict[KeyRange, Version] = {}
        #: insertion-ordered registries (:class:`_SessionSet`):
        #: iteration order matches the old list implementation exactly,
        #: while close is O(1) instead of O(sessions) — at E14 scale a
        #: reconnect storm closes tens of thousands of sessions against
        #: a 100k+ registry, where list.remove would be quadratic
        self._sessions = _SessionSet()
        #: the subset of sessions that subscribed to progress events;
        #: edge feeds opt out (they deliver values, not knowledge
        #: windows), keeping each progress tick O(interested) instead
        #: of O(sessions)
        self._progress_sessions = _SessionSet()
        #: sessions grouped by their exact key range, so an ingest only
        #: touches sessions whose range can match (registration order is
        #: preserved within a group; when several groups match one key
        #: the global registry is used so cross-group delivery order
        #: stays identical to the unindexed implementation)
        self._range_groups: Dict[KeyRange, _SessionSet] = {}
        #: (range, group) when exactly one group exists — the common
        #: sharded topology — letting ingest skip the group scan
        self._sole_group = None
        # counters created on first use so the registry's contents stay
        # identical to the f-string-per-call implementation
        self._watches_counter: Optional[Counter] = None
        self._resyncs_counter: Optional[Counter] = None
        #: one bound method, shared by every session this owner opens
        self._on_session_closed = self._session_closed
        self.soft_state_peak_events = 0
        self.events_ingested = 0
        self.events_evicted = 0

    # ------------------------------------------------------------------
    # Ingester (the store feeds us)

    def append(self, event: ChangeEvent) -> None:
        self.events_ingested += 1
        if self.tracer is not None:
            self.tracer.record(
                hops.WATCH_INGEST, self.name,
                key=event.key, version=event.version, system=self.name,
            )
        buf = self._buffer
        if self._buf_sorted and buf and event.version < buf[-1].version:
            self._buf_sorted = False
        buf.append(event)
        retained = len(buf) - self._buf_head
        if retained > self.soft_state_peak_events:
            self.soft_state_peak_events = retained
        # fan out through the range index: when exactly one range group
        # matches the key, only its sessions are touched (they skip the
        # redundant range check); overlapping groups fall back to the
        # global list so cross-group delivery order is unchanged
        key = event.key
        target: Optional[_SessionSet] = None
        multi = False
        sole = self._sole_group
        if sole is not None:
            rng, group = sole
            if rng.low <= key < rng.high:
                target = group
        else:
            for rng, group in self._range_groups.items():
                if rng.low <= key < rng.high:
                    if target is None:
                        target = group
                    else:
                        multi = True
                        break
        if multi:
            for session in self._sessions:
                session.offer_event(event)
        elif target is not None:
            sim_post = self.sim.post
            version = event.version
            for session in target:
                # WatcherSession's enqueue rule, inlined minus the range
                # check (the group's range holds the key): this loop is
                # the fan-out's inner loop
                if not session._active or version <= session.from_version:
                    continue
                queue = session._queue
                if queue is None:
                    queue = session._queue = []
                elif len(queue) - session._qhead >= session._max_backlog:
                    session.signal_resync()
                    continue
                queue.append(event)
                if not session._draining:
                    session._draining = True
                    sim_post(session._delivery_latency, session._drain_next)
        while retained > self.config.max_buffered_events:
            evicted = buf[self._buf_head]
            self._buf_head += 1
            retained -= 1
            self.events_evicted += 1
            if evicted.version > self._floor:
                self._floor = evicted.version
        self._maybe_compact_buffer()

    def _maybe_compact_buffer(self) -> None:
        head = self._buf_head
        if head >= _BUFFER_COMPACT_MIN and head * 2 >= len(self._buffer):
            del self._buffer[:head]
            self._buf_head = 0

    def progress(self, event: ProgressEvent) -> None:
        key_range = event.key_range
        previous = self._progress_marks.get(key_range, VERSION_ZERO)
        if event.version < previous:
            return  # stale duplicate from the store side
        self._progress_marks[key_range] = event.version
        # offers never synchronously mutate the session list (closures
        # happen at delivery time, via scheduled events), so no copy
        for session in self._progress_sessions:
            session.offer_progress(event)

    # ------------------------------------------------------------------
    # Watchable (consumers watch us)

    def watch(
        self, low: Key, high: Key, version: Version, callback: WatchCallback
    ) -> Cancellable:
        """Start a watch on ``[low, high)`` from ``version``.

        If ``version`` is below the retained floor, the watcher cannot
        be caught up from soft state: it receives an immediate resync
        (it should snapshot the store and re-watch — see
        :class:`~repro.core.linked_cache.LinkedCache`).
        """
        return self.watch_range(KeyRange(low, high), version, callback)

    def watch_range(
        self, key_range: KeyRange, version: Version, callback: WatchCallback,
        config: Optional[WatcherConfig] = None,
        tracer=_SYSTEM_TRACER,
        progress: bool = True,
    ) -> Cancellable:
        """Like :meth:`watch` with a KeyRange and optional per-watch
        delivery configuration (slow watcher modeling).

        ``tracer`` overrides the per-watcher tracer (``None`` silences
        this watcher's delivery hops); by default the session inherits
        the system tracer.  The edge tier passes its sampled per-session
        tracer here so a million untraced feeds record nothing.

        ``progress=False`` unsubscribes the watcher from progress
        events entirely (no deliveries, no attach-time mark replay):
        the per-tick progress fan-out then costs O(subscribed), not
        O(sessions) — the difference between a knowledge-window
        consumer and a million value-only edge feeds."""
        if tracer is _SYSTEM_TRACER:
            tracer = self.tracer
        # the sequence advances for every session, so a traced label is
        # the same whichever sessions are sampled; only tracer records
        # read the label, so an untraced session carries none
        self._session_seq += 1
        session = WatcherSession(
            sim=self.sim,
            key_range=key_range,
            from_version=version,
            callback=callback,
            config=config or self.config.watcher_defaults,
            on_closed=self._on_session_closed,
            tracer=tracer,
            label=None if tracer is None else f"{self.name}#{self._session_seq}",
        )
        self._sessions.add(session)
        if progress:
            self._progress_sessions.add(session)
        group = self._range_groups.get(key_range)
        if group is None:
            self._range_groups[key_range] = group = _SessionSet()
            group.add(session)
            self._sole_group = (
                (key_range, group) if len(self._range_groups) == 1 else None
            )
        else:
            group.add(session)
        counter = self._watches_counter
        if counter is None:
            counter = self._watches_counter = self.metrics.counter(
                f"watch.{self.name}.watches"
            )
        counter.inc()
        if version < self._floor:
            counter = self._resyncs_counter
            if counter is None:
                counter = self._resyncs_counter = self.metrics.counter(
                    f"watch.{self.name}.resyncs"
                )
            counter.inc()
            session.signal_resync()
            return session
        # catch up from the retained buffer, then replay current
        # progress marks so knowledge windows open without waiting for
        # the next store-side progress tick.  While the buffer is
        # version-sorted (the single-ingest-range common case) the
        # events at or below the start version — which the session
        # would drop anyway — are skipped by bisection.
        buf = self._buffer
        start = self._buf_head
        if self._buf_sorted:
            start = bisect_right(buf, version, start, len(buf), key=_event_version)
        for i in range(start, len(buf)):
            session.offer_event(buf[i])
        if progress:
            for mark_range, mark_version in self._progress_marks.items():
                session.offer_progress(ProgressEvent(mark_range.low, mark_range.high, mark_version))
        return session

    def _session_closed(self, session: WatcherSession) -> None:
        if session not in self._sessions:
            return
        self._sessions.discard(session)
        self._progress_sessions.discard(session)
        group = self._range_groups.get(session.key_range)
        if group is not None:
            group.discard(session)
            if not group:
                del self._range_groups[session.key_range]
                groups = self._range_groups
                if len(groups) == 1:
                    self._sole_group = next(iter(groups.items()))
                else:
                    self._sole_group = None

    # ------------------------------------------------------------------
    # soft-state management

    def wipe(self) -> None:
        """Destroy all soft state (§4.2.2: recoverable by design).

        Buffer, progress marks, and the floor are discarded; the floor
        jumps to the highest version ever seen so any watcher position
        is stale; every active watcher is resynced.
        """
        highest = max(
            (e.version for e in self._iter_buffer()), default=self._floor
        )
        for mark_version in self._progress_marks.values():
            if mark_version > highest:
                highest = mark_version
        self._buffer.clear()
        self._buf_head = 0
        self._buf_sorted = True
        self._progress_marks.clear()
        self._floor = highest
        for session in list(self._sessions):
            session.signal_resync()

    def _iter_buffer(self):
        buf = self._buffer
        for i in range(self._buf_head, len(buf)):
            yield buf[i]

    def raise_floor(self, version: Version) -> None:
        """Declare history at or below ``version`` unservable.

        Used by relays after their own resync: the events they missed
        upstream can never be replayed downstream, so any watcher that
        has not already advanced past ``version`` must resync.  Buffered
        events at or below the new floor are dropped.
        """
        if version <= self._floor:
            return
        self._floor = version
        buf = self._buffer
        head = self._buf_head
        while head < len(buf) and buf[head].version <= version:
            head += 1
            self.events_evicted += 1
        if head >= len(buf):
            buf.clear()
            head = 0
            self._buf_sorted = True
        self._buf_head = head
        self._maybe_compact_buffer()
        for session in list(self._sessions):
            if session.delivered_version < version:
                session.signal_resync()

    @property
    def retained_floor(self) -> Version:
        """Watch positions must be >= this to avoid a resync."""
        return self._floor

    @property
    def active_watchers(self) -> int:
        return len(self._sessions)

    def soft_state_bytes(self) -> int:
        """Current soft-state footprint (E8: this is *not* hard state)."""
        return sum(event.size() for event in self._iter_buffer())
