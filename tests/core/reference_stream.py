"""The deque-based watcher session: the spec the list queue refines.

``ReferenceWatcherSession`` is ``WatcherSession`` as it was before its
queue became a list with a head offset that is cleared on drain: a
``collections.deque``, allocated on first enqueue and kept for the
session's life.  ``test_watcher_queue.py`` demands that no program can
tell the two apart.  Test-only, never imported from ``src/``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro._types import KeyRange, Version
from repro.core.api import Cancellable, WatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import _RESYNC, WatcherConfig, _Item
from repro.obs.trace import hops
from repro.sim.kernel import Simulation


class ReferenceWatcherSession(Cancellable):
    """One active watch: range, position, delivery queue.

    ``__slots__``-only, and the delivery queue is allocated lazily on
    first enqueue: at E14 scale there is one of these per edge session
    feed, and for a mostly-idle population the instance dict plus an
    empty ``deque`` (~0.6KB) would be the dominant per-watch cost.
    Producers that touch ``_queue`` directly (the watch system's
    inlined fan-out path) share the same lazy contract: ``None`` means
    empty-and-unallocated.
    """

    __slots__ = (
        "sim", "key_range", "from_version", "callback", "config",
        "_on_closed", "tracer", "label", "_queue",
        "_draining", "_active", "delivered_version", "events_delivered",
        "progress_delivered", "resyncs_signalled", "overflow_drops",
        "_low", "_high", "_cb_event", "_cb_progress", "_max_backlog",
        "_delivery_latency", "_service_time", "_pending", "_drain_cb",
    )

    def __init__(
        self,
        sim: Simulation,
        key_range: KeyRange,
        from_version: Version,
        callback: WatchCallback,
        config: WatcherConfig,
        on_closed: Optional[Callable[["WatcherSession"], None]] = None,
        tracer=None,
        label: str = "watcher",
    ) -> None:
        self.sim = sim
        self.key_range = key_range
        self.from_version = from_version
        self.callback = callback
        self.config = config
        self._on_closed = on_closed
        self.tracer = tracer
        self.label = label
        #: lazily allocated on first enqueue (None == empty)
        self._queue: Optional[Deque[_Item]] = None
        self._draining = False
        self._active = True
        #: highest change-event version delivered (monotone per key by
        #: producer contract; tracked for diagnostics/tests)
        self.delivered_version: Version = from_version
        self.events_delivered = 0
        self.progress_delivered = 0
        self.resyncs_signalled = 0
        self.overflow_drops = 0
        # hot-path prebinds: the fan-out loops run these per event, so
        # the config/range/callback indirections are resolved once here
        self._low = key_range.low
        self._high = key_range.high
        self._cb_event = callback.on_event
        self._cb_progress = callback.on_progress
        self._max_backlog = config.max_backlog
        self._delivery_latency = config.delivery_latency
        self._service_time = config.service_time
        self._pending: Optional[_Item] = None
        #: pre-bound so the offer paths post without allocating a bound
        #: method per drain kick
        self._drain_cb = self._drain_next

    # ------------------------------------------------------------------
    # Cancellable

    @property
    def active(self) -> bool:
        return self._active

    def cancel(self) -> None:
        if not self._active:
            return
        self._active = False
        if self._queue is not None:
            self._queue.clear()
        if self._on_closed is not None:
            self._on_closed(self)

    # ------------------------------------------------------------------
    # producer side (watch implementations call these)

    def offer_event(self, event: ChangeEvent) -> None:
        """Enqueue a change event if it matches this watch."""
        # inlines _enqueue — this is the fan-out inner loop
        if not self._active:
            return
        if not self._low <= event.key < self._high:
            return
        if event.version <= self.from_version:
            return
        queue = self._queue
        if queue is None:
            queue = self._queue = deque()
        elif len(queue) >= self._max_backlog:
            self.signal_resync()
            return
        queue.append(event)
        if not self._draining:
            self._draining = True
            self.sim.post(self._delivery_latency, self._drain_cb)

    def offer_progress(self, progress: ProgressEvent) -> None:
        """Enqueue the intersection of a progress event with our range."""
        if not self._active:
            return
        # inlined KeyRange.intersect — this runs once per (progress
        # event, session) pair and the KeyRange round-trip dominates
        low = self._low if self._low >= progress.low else progress.low
        high = self._high if self._high <= progress.high else progress.high
        if low >= high:
            return
        self._enqueue(ProgressEvent(low, high, progress.version))

    def signal_resync(self) -> None:
        """Drop everything queued and deliver a resync.

        Used on producer-side retention loss and on watcher backlog
        overflow (§4.4 "send a resync signal to a consumer whenever its
        backlog is excessive").
        """
        if not self._active:
            return
        if self._queue is not None:
            self.overflow_drops += len(self._queue)
            self._queue.clear()
        self._enqueue(_RESYNC)

    def _enqueue(self, item: _Item) -> None:
        queue = self._queue
        if queue is None:
            queue = self._queue = deque()
        elif item is not _RESYNC and len(queue) >= self._max_backlog:
            self.signal_resync()
            return
        queue.append(item)
        if not self._draining:
            self._draining = True
            self.sim.post(self._delivery_latency, self._drain_cb)

    # ------------------------------------------------------------------
    # consumer side

    def _drain_next(self) -> None:
        # Iterative drain: with zero service time the whole queue is
        # delivered in a loop (no recursion — queues can be large);
        # with nonzero service time one item is delivered per step.
        # Items enqueued by a callback mid-drain are picked up by the
        # same loop at the same virtual time.
        queue = self._queue
        if queue is None:
            self._draining = False
            return
        if self._service_time > 0:
            if not self._active or not queue:
                self._draining = False
                return
            self._pending = queue.popleft()
            self.sim.post(self._service_time, self._service_step)
            return
        # change events with no tracer attached — the overwhelmingly
        # common item — are delivered inline; everything else (resync,
        # progress, traced deliveries) goes through _deliver
        deliver = self._deliver
        popleft = queue.popleft
        cb_event = self._cb_event
        change_event = ChangeEvent
        untraced = self.tracer is None
        delivered = 0  # batched into events_delivered at burst end
        while self._active and queue:
            item = popleft()
            if untraced and item.__class__ is change_event:
                delivered += 1
                if item.version > self.delivered_version:
                    self.delivered_version = item.version
                cb_event(item)
            else:
                # keep the counter coherent before _deliver's own
                # accounting (resync tracing reads overflow state)
                self.events_delivered += delivered
                delivered = 0
                deliver(item)
        self.events_delivered += delivered
        self._draining = False

    def _service_step(self) -> None:
        item = self._pending
        self._pending = None
        self._deliver(item)
        self._drain_next()

    def _deliver(self, item: _Item) -> None:
        if not self._active:
            return
        if item.__class__ is ChangeEvent:
            self.events_delivered += 1
            if item.version > self.delivered_version:
                self.delivered_version = item.version
            if self.tracer is not None:
                self.tracer.record(
                    hops.WATCH_DELIVER, self.label,
                    key=item.key, version=item.version, watcher=self.label,
                )
            self._cb_event(item)
            return
        if item is _RESYNC:
            self.resyncs_signalled += 1
            if self.tracer is not None:
                self.tracer.record(
                    hops.WATCH_RESYNC, self.label,
                    watcher=self.label, dropped=self.overflow_drops,
                )
            # the session ends; the client must snapshot + re-watch
            self._active = False
            if self._on_closed is not None:
                self._on_closed(self)
            self.callback.on_resync()
            return
        self.progress_delivered += 1
        self._cb_progress(item)

    @property
    def backlog(self) -> int:
        """Items queued but not yet delivered."""
        queue = self._queue
        return len(queue) if queue is not None else 0
