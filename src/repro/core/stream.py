"""Per-watcher delivery sessions.

Both watch implementations (built-in :class:`~repro.core.store_watch.
StoreWatch` and external :class:`~repro.core.watch_system.WatchSystem`)
deliver through a :class:`WatcherSession`, which provides uniform:

- FIFO delivery with configurable network latency and per-item consumer
  service time (slow watchers are modeled here);
- backlog accounting, and the §4.4 behaviour that distinguishes watch
  from pubsub: when a watcher's backlog exceeds its bound, the session
  **drops the queue and delivers a resync signal** instead of letting
  the backlog grow without bound or silently losing data;
- clean cancellation (a resync terminates the session; the client must
  re-watch, per §4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from repro._types import KeyRange, Version
from repro.core.api import Cancellable, WatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.obs.trace import hops
from repro.sim.kernel import Simulation


@dataclass
class WatcherConfig:
    """Delivery parameters for one watch."""

    delivery_latency: float = 0.001
    #: Consumer-side processing time per delivered item (0 = instant).
    service_time: float = 0.0
    #: Queue length beyond which the session resyncs the watcher.
    max_backlog: int = 10_000

    def __post_init__(self) -> None:
        if self.delivery_latency < 0 or self.service_time < 0:
            raise ValueError("latency/service_time must be >= 0")
        if self.max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")


_RESYNC = "resync"
_Item = Union[ChangeEvent, ProgressEvent, str]

#: compact a slow watcher's consumed head once it is this long and at
#: least half the list (amortized O(1); the edge session's rule)
_QHEAD_COMPACT = 512


class WatcherSession(Cancellable):
    """One active watch: range, position, delivery queue.

    ``__slots__``-only, and the delivery queue is a plain list with a
    head offset ``_qhead``, allocated lazily on first enqueue and
    cleared whenever a drain delivers its last item: at E14 scale there
    is one of these per edge session feed, so a drained queue keeps
    only the empty list (56 B), never the item array of its largest
    burst.  Producers that touch ``_queue`` directly (the watch system's
    inlined fan-out path) share the same contract: ``None`` means
    empty-and-unallocated, and the backlog is ``len(_queue) - _qhead``.
    """

    __slots__ = (
        "sim", "key_range", "from_version", "callback", "config",
        "_on_closed", "tracer", "label", "predicate", "_queue",
        "_qhead", "_draining", "_active", "delivered_version",
        "events_delivered", "progress_delivered", "resyncs_signalled",
        "overflow_drops",
        "_low", "_high", "_max_backlog", "_delivery_latency",
        "_service_time", "_pending",
    )

    def __init__(
        self,
        sim: Simulation,
        key_range: KeyRange,
        from_version: Version,
        callback: WatchCallback,
        config: WatcherConfig,
        on_closed: Optional[Callable[["WatcherSession"], None]] = None,
        predicate: Optional[Callable[[ChangeEvent], bool]] = None,
        tracer=None,
        label: Optional[str] = "watcher",
    ) -> None:
        self.sim = sim
        self.key_range = key_range
        self.from_version = from_version
        self.callback = callback
        self.config = config
        self._on_closed = on_closed
        self.tracer = tracer
        self.label = label
        #: optional server-side event filter (k8s-selector style); the
        #: consumer receives only matching events.  Progress semantics
        #: are unchanged: progress still means "all *matching* events
        #: up to v supplied", which is exactly what a filtered
        #: materialization needs.
        self.predicate = predicate
        #: lazily allocated on first enqueue (None == empty); items
        #: before ``_qhead`` are delivered, and a drain that delivers the
        #: last item clears the list and resets ``_qhead`` to 0
        self._queue: Optional[List[_Item]] = None
        self._qhead = 0
        self._draining = False
        self._active = True
        #: highest change-event version delivered (monotone per key by
        #: producer contract; tracked for diagnostics/tests)
        self.delivered_version: Version = from_version
        self.events_delivered = 0
        self.progress_delivered = 0
        self.resyncs_signalled = 0
        self.overflow_drops = 0
        # hot-path copies: the fan-out loops read these per event, so
        # the config/range indirections are resolved once here.  No
        # callable is stored: a bound method is a GC-tracked object per
        # session, so the drain kick posts a short-lived one and the
        # drain reads the callback's method once per burst
        self._low = key_range.low
        self._high = key_range.high
        self._max_backlog = config.max_backlog
        self._delivery_latency = config.delivery_latency
        self._service_time = config.service_time
        self._pending: Optional[_Item] = None

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
            self._qhead = 0
        if self._on_closed is not None:
            self._on_closed(self)

    # ------------------------------------------------------------------
    # producer side (watch implementations call these)

    def offer_event(self, event: ChangeEvent) -> None:
        """Enqueue a change event if it matches this watch."""
        # body mirrors offer_matched with the range check added; both
        # inline _enqueue — this pair is the fan-out inner loop
        if not self._active:
            return
        if not self._low <= event.key < self._high:
            return
        if event.version <= self.from_version:
            return
        if self.predicate is not None and not self.predicate(event):
            return
        queue = self._queue
        if queue is None:
            queue = self._queue = []
        elif len(queue) - self._qhead >= self._max_backlog:
            self.signal_resync()
            return
        queue.append(event)
        if not self._draining:
            self._draining = True
            self.sim.post(self._delivery_latency, self._drain_next)

    def offer_matched(self, event: ChangeEvent) -> None:
        """:meth:`offer_event` minus the range check, for producers that
        already know ``event.key`` is inside this session's range (the
        watch system's range-group fan-out)."""
        if not self._active:
            return
        if event.version <= self.from_version:
            return
        if self.predicate is not None and not self.predicate(event):
            return
        queue = self._queue
        if queue is None:
            queue = self._queue = []
        elif len(queue) - self._qhead >= self._max_backlog:
            self.signal_resync()
            return
        queue.append(event)
        if not self._draining:
            self._draining = True
            self.sim.post(self._delivery_latency, self._drain_next)

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
        queue = self._queue
        if queue is not None:
            self.overflow_drops += len(queue) - self._qhead
            queue.clear()
            self._qhead = 0
        self._enqueue(_RESYNC)

    def _enqueue(self, item: _Item) -> None:
        queue = self._queue
        if queue is None:
            queue = self._queue = []
        elif (
            item is not _RESYNC
            and len(queue) - self._qhead >= self._max_backlog
        ):
            self.signal_resync()
            return
        queue.append(item)
        if not self._draining:
            self._draining = True
            self.sim.post(self._delivery_latency, self._drain_next)

    # ------------------------------------------------------------------
    # consumer side

    def _drain_next(self) -> None:
        # Iterative drain: with zero service time the whole queue is
        # delivered in a loop (no recursion — queues can be large);
        # with nonzero service time one item is delivered per step.
        # Items enqueued by a callback mid-drain are picked up by the
        # same loop at the same virtual time.  Delivering the last item
        # clears the list, so a drained queue holds no item array.
        queue = self._queue
        if queue is None:
            self._draining = False
            return
        head = self._qhead
        if self._service_time > 0:
            if not self._active or head >= len(queue):
                self._draining = False
                return
            self._pending = queue[head]
            head += 1
            if head == len(queue):
                queue.clear()
                head = 0
            elif head >= _QHEAD_COMPACT and head * 2 >= len(queue):
                # a watcher that never catches up never drains empty
                del queue[:head]
                head = 0
            self._qhead = head
            self.sim.post(self._service_time, self._service_step)
            return
        # change events with no tracer attached — the overwhelmingly
        # common item — are delivered inline; everything else (resync,
        # progress, traced deliveries) goes through _deliver
        deliver = self._deliver
        cb_event = self.callback.on_event
        change_event = ChangeEvent
        untraced = self.tracer is None
        delivered = 0  # batched into events_delivered at burst end
        while self._active and head < len(queue):
            item = queue[head]
            # published before the callback: a re-offer reads the
            # backlog, and cancel()/signal_resync() reset it to 0
            self._qhead = head + 1
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
            head = self._qhead
        if head == len(queue):
            queue.clear()
            self._qhead = 0
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
            self.callback.on_event(item)
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
        self.callback.on_progress(item)

    @property
    def backlog(self) -> int:
        """Items queued but not yet delivered."""
        queue = self._queue
        return len(queue) - self._qhead if queue is not None else 0
