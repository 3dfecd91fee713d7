"""Reliable delivery over the lossy simulated network.

``Network.send`` is fire-and-forget: loss, partitions, and crashed
endpoints silently eat messages.  A :class:`ReliableChannel` is a named
peer that layers the classic machinery on top:

- **acks** — every reliable data frame is acknowledged by the receiver;
- **retransmission** — unacked frames are retransmitted on the sender's
  :class:`~repro.resilience.retry.RetryPolicy` schedule (deterministic
  jitter from the sim RNG) until acked, exhausted, or the channel is
  torn down;
- **duplicate suppression** — per-sender, per-destination sequence
  numbers let the receiver drop retransmitted duplicates (and re-ack
  them, covering lost acks);
- **ordering** (optional) — with ``ordered=True`` the receiver holds
  back out-of-order reliable frames until the gap fills, so the
  application sees the exact send order (what the watch Ingester
  contract requires);
- **circuit breaking** (optional) — consecutive ack timeouts to a
  destination trip a per-destination breaker; while open, retransmits
  are suppressed (fast-fail) until the cooldown elapses.

Retransmit deadlines share one clock per channel: a heap of
``[deadline, seq, pending]`` entries and a few kernel alarms at entry
slots, so an ack costs no kernel call, yet every deadline fires at the
exact ``(time, seq)`` a timer of its own would have had (see
:meth:`ReliableChannel._arm_retransmit`).

A channel is :class:`~repro.sim.failures.Failable`: ``crash()`` takes
the endpoint off the network and stops the retransmit clock (pending
frames are kept); ``recover`` re-kicks every pending frame — the
"consumer data center down for days" scenario recovers
programmatically.

All counters live in the metrics registry under
``resilience.<channel>.*`` (sent, transmits, retransmits,
retransmit_bytes, acked, gaveup, received, duplicates_dropped,
held_for_order).

Usage::

    net = Network(sim, NetworkConfig(loss_rate=0.05))
    rx = ReliableChannel(sim, net, "rx", handler=lambda src, p: seen.append(p))
    tx = ReliableChannel(sim, net, "tx",
                         config=ChannelConfig(retry=RetryPolicy.unbounded()))
    tx.send("rx", {"hello": 1},
            on_delivered=lambda: print("acked"),
            on_giveup=lambda: print("abandoned"))
    sim.run_for(5.0)   # retransmits ride the kernel until the ack lands

With a :class:`~repro.obs.trace.Tracer` on the network (or passed as
``tracer=``), the channel records ``channel.*`` trace events —
transmits, acks, giveups, and fire-and-forget sends attempted while
crashed — keyed by ``(channel, dst, seq)`` so loss provenance can name
the exact hop that lost an update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.trace import hops
from repro.sim.kernel import EventHandle, Simulation
from repro.sim.metrics import LazyMetric, MetricsRegistry
from repro.sim.network import Network
from repro.sim.wire import WireError, register as _wire_register, wire_size
from repro.resilience.breaker import CircuitBreaker, CircuitBreakerConfig
from repro.resilience.retry import RetryPolicy
from repro.transport import BatchConfig

#: Receives (src, payload) for each application payload delivered.
Handler = Callable[[str, Any], None]

#: compact the retransmit heap when at least this many acked entries
#: are queued *and* they outnumber live ones (the kernel's rule)
_COMPACT_MIN_DEAD = 512


@dataclass(frozen=True)
class ChannelConfig:
    """Delivery semantics of a :class:`ReliableChannel`."""

    retry: RetryPolicy = field(default_factory=RetryPolicy.unbounded)
    #: False = fire-and-forget passthrough (the chaos-soak baseline):
    #: frames carry sequence numbers but are neither acked nor
    #: retransmitted.
    reliable: bool = True
    #: Deliver reliable frames to the handler in send order per sender
    #: (holds back frames that arrive ahead of a retransmitted gap).
    ordered: bool = False
    #: Per-destination circuit breaker on consecutive ack timeouts.
    breaker: Optional[CircuitBreakerConfig] = None
    #: When set, payloads coalesce per destination into group frames
    #: under this flush policy: one sequence number, one ack, and one
    #: retransmit per frame instead of per message.  ``send`` returns
    #: the shared frame seq, so trace hops recorded against it join a
    #: lost frame back to every coalesced message.  None (default)
    #: keeps the unbatched per-message path bit-for-bit unchanged.
    batch: Optional[BatchConfig] = None


@dataclass
class _DataFrame:
    seq: int
    payload: Any
    needs_ack: bool
    #: wire size, stored at first transmit (see ``wire.register``) so
    #: the network and every retransmit reuse one sizing walk
    cached_size: int = field(default=0, repr=False, compare=False)


@dataclass
class _AckFrame:
    seq: int


@dataclass
class _GroupPayload:
    """N application payloads coalesced into one wire frame."""

    payloads: List[Any]


_wire_register(_DataFrame, "channel.Data", ("seq", "payload", "needs_ack"))
_wire_register(_AckFrame, "channel.Ack", ("seq",))
_wire_register(_GroupPayload, "channel.Group", ("payloads",))


@dataclass
class _OpenFrame:
    """A not-yet-flushed batch: seq is assigned eagerly at open time so
    senders can trace against the frame before it hits the wire."""

    seq: int
    group: _GroupPayload
    delivered: List[Callable[[], None]] = field(default_factory=list)
    giveup: List[Callable[[], None]] = field(default_factory=list)


def _fire_all(callbacks: List[Callable[[], None]]) -> Optional[Callable[[], None]]:
    if not callbacks:
        return None

    def fire() -> None:
        for callback in callbacks:
            callback()

    return fire


@dataclass
class _Pending:
    dst: str
    seq: int
    payload: Any
    started_at: float
    attempts: int = 0
    #: this frame's entry ``[deadline, seq, self]`` on the retransmit
    #: clock (see ReliableChannel._arm_retransmit)
    entry: Optional[List[Any]] = None
    #: whether the last scheduled attempt actually hit the wire (False
    #: while suppressed by an open breaker — a fast-failed attempt must
    #: not count as evidence against the destination, or the breaker
    #: would re-open itself forever on its own suppressions)
    transmitted: bool = False
    on_delivered: Optional[Callable[[], None]] = None
    on_giveup: Optional[Callable[[], None]] = None
    #: the wire frame, built (and sized) once at first transmit and
    #: reused verbatim by every retransmit
    frame: Optional[_DataFrame] = None


class _SeenSeqs:
    """The sequence numbers received from one sender.

    Every seq below ``floor`` has been seen; ``ahead`` holds the seen
    seqs at or above it — frames that overtook a gap.  When the gap
    fills, the floor advances through ``ahead`` and drains it, so the
    state is bounded by the sender's reorder window instead of growing
    by one int per frame for the life of the session.
    """

    __slots__ = ("floor", "ahead")

    def __init__(self) -> None:
        self.floor = 0
        self.ahead: Set[int] = set()

    def add(self, seq: int) -> bool:
        """Record ``seq``; False if it was already seen (a duplicate)."""
        floor = self.floor
        if seq < floor:
            return False
        ahead = self.ahead
        if seq != floor:
            if seq in ahead:
                return False
            ahead.add(seq)
            return True
        floor += 1
        while floor in ahead:
            ahead.remove(floor)
            floor += 1
        self.floor = floor
        return True


def _lazy(kind: str, suffix: str) -> LazyMetric:
    return LazyMetric(kind, "resilience.{0.name}." + suffix)


class ReliableChannel:
    """A named network peer with reliable-delivery semantics."""

    _c_sent = _lazy("counter", "sent")
    _c_transmits = _lazy("counter", "transmits")
    _c_retransmits = _lazy("counter", "retransmits")
    _c_retransmit_bytes = _lazy("counter", "retransmit_bytes")
    _c_acked = _lazy("counter", "acked")
    _c_gaveup = _lazy("counter", "gaveup")
    _c_received = _lazy("counter", "received")
    _c_frames_received = _lazy("counter", "frames_received")
    _c_duplicates_dropped = _lazy("counter", "duplicates_dropped")
    _c_held_for_order = _lazy("counter", "held_for_order")
    _c_unhandled = _lazy("counter", "unhandled")
    _h_delivery_time = _lazy("histogram", "delivery_time")

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        name: str,
        handler: Optional[Handler] = None,
        config: Optional[ChannelConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.handler = handler
        self.config = config or ChannelConfig()
        self.metrics = metrics if metrics is not None else net.metrics
        self.tracer = tracer if tracer is not None else net.tracer
        self.up = True
        net.register(name, self._on_frame)
        self._next_seq: Dict[str, int] = {}
        self._pending: Dict[Tuple[str, int], _Pending] = {}
        self._open: Dict[str, _OpenFrame] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        # the retransmit clock: entries [deadline, seq, pending] in
        # kernel order, the armed alarms (entry, handle) with the
        # earliest last, and how many queued entries are dead
        self._retx: List[List[Any]] = []
        self._alarms: List[Tuple[List[Any], EventHandle]] = []
        self._dead = 0
        #: alarms armed because a new deadline undercut the earliest one
        self.undercut_alarms = 0
        #: alarms that found their frame acked: no-ops that re-arm
        self.stale_fires = 0
        # receiver state, per sender (a durable session: survives crash)
        self._seen: Dict[str, _SeenSeqs] = {}
        self._expected: Dict[str, int] = {}
        self._holdback: Dict[str, Dict[int, Any]] = {}

    # ------------------------------------------------------------------
    # sending

    def send(
        self,
        dst: str,
        payload: Any,
        on_delivered: Optional[Callable[[], None]] = None,
        on_giveup: Optional[Callable[[], None]] = None,
    ) -> int:
        """Send ``payload`` to channel ``dst``; returns the sequence
        number assigned on this sender→destination stream.

        Reliable mode tracks the frame until acked (retransmitting per
        the retry policy) or until the policy is exhausted, at which
        point ``on_giveup`` fires.  Fire-and-forget mode transmits once
        and forgets.

        With ``config.batch`` set, the payload joins the destination's
        open group frame and the returned seq is the *frame's* — shared
        by every payload the frame carries.
        """
        if self.config.batch is not None:
            return self._send_batched(dst, payload, on_delivered, on_giveup)
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        self._c_sent.inc()
        self._ship(dst, seq, payload, on_delivered, on_giveup)
        return seq

    def _ship(
        self,
        dst: str,
        seq: int,
        payload: Any,
        on_delivered: Optional[Callable[[], None]],
        on_giveup: Optional[Callable[[], None]],
    ) -> None:
        """Hand one frame to the wire — ``payload`` is a single message
        or a closed :class:`_GroupPayload`; both modes, up or crashed."""
        if self.config.reliable:
            pending = _Pending(
                dst, seq, payload, self.sim.now(),
                on_delivered=on_delivered, on_giveup=on_giveup,
            )
            self._pending[(dst, seq)] = pending
            if self.up:
                self._transmit(pending)
            # else: queued; recover() re-kicks every pending frame
        elif self.up:
            self._c_transmits.inc()
            if self.tracer is not None:
                self._trace(hops.CHANNEL_TRANSMIT, dst, seq, payload, attempt=1)
            self.net.send(self.name, dst, _DataFrame(seq, payload, needs_ack=False))
        elif self.tracer is not None:
            # fire-and-forget while crashed: the frame dies silently at
            # the sender — one record for loss provenance (a group's
            # shared seq attributes every coalesced message)
            self._trace(hops.CHANNEL_SENDER_DOWN, dst, seq, payload)

    def _trace(self, hop: str, dst: str, seq: int, payload: Any, **attrs: Any) -> None:
        if type(payload) is _GroupPayload:
            # per-frame span carries the coalesced count so losing this
            # frame means losing n_events messages
            attrs["n_events"] = len(payload.payloads)
        self.tracer.record(
            hop, self.name, channel=self.name, dst=dst, seq=seq, **attrs
        )

    # ------------------------------------------------------------------
    # batching (config.batch is not None)

    def _send_batched(
        self,
        dst: str,
        payload: Any,
        on_delivered: Optional[Callable[[], None]],
        on_giveup: Optional[Callable[[], None]],
    ) -> int:
        batch = self.config.batch
        self._c_sent.inc()
        open_frame = self._open.get(dst)
        if open_frame is None:
            seq = self._next_seq.get(dst, 0)
            self._next_seq[dst] = seq + 1
            open_frame = _OpenFrame(seq=seq, group=_GroupPayload([]))
            self._open[dst] = open_frame
            self.sim.post(batch.max_linger, lambda: self._linger_flush(dst, seq))
        open_frame.group.payloads.append(payload)
        if on_delivered is not None:
            open_frame.delivered.append(on_delivered)
        if on_giveup is not None:
            open_frame.giveup.append(on_giveup)
        if len(open_frame.group.payloads) >= batch.max_batch:
            self.flush(dst)
        return open_frame.seq

    def _linger_flush(self, dst: str, seq: int) -> None:
        open_frame = self._open.get(dst)
        if open_frame is not None and open_frame.seq == seq:
            self.flush(dst)

    def flush(self, dst: str) -> None:
        """Close and ship ``dst``'s open group frame, if any."""
        open_frame = self._open.pop(dst, None)
        if open_frame is None:
            return
        self._ship(
            dst, open_frame.seq, open_frame.group,
            _fire_all(open_frame.delivered), _fire_all(open_frame.giveup),
        )

    def flush_all(self) -> None:
        """Close every open group frame (e.g. at end of a commit burst)."""
        for dst in list(self._open):
            self.flush(dst)

    def breaker(self, dst: str) -> Optional[CircuitBreaker]:
        """The per-destination breaker (None if breaking is disabled)."""
        if self.config.breaker is None:
            return None
        breaker = self._breakers.get(dst)
        if breaker is None:
            breaker = CircuitBreaker(
                self.sim,
                name=f"{self.name}->{dst}",
                config=self.config.breaker,
                metrics=self.metrics,
            )
            self._breakers[dst] = breaker
        return breaker

    def _transmit(self, pending: _Pending) -> None:
        """One attempt at a pending frame (the sender is up), then its
        next ack deadline on the retransmit clock."""
        breaker = self.breaker(pending.dst)
        if breaker is not None and not breaker.allow():
            # a suppressed attempt never hit the wire: it consumes no
            # retry budget, and the timeout must not feed the breaker.
            # Re-check once the cooldown has a chance to have elapsed.
            pending.transmitted = False
            delay = max(breaker.cooldown_remaining(), self.config.retry.base_delay)
        else:
            pending.attempts += 1
            pending.transmitted = True
            self._c_transmits.inc()
            if self.tracer is not None:
                self._trace(
                    hops.CHANNEL_TRANSMIT, pending.dst, pending.seq,
                    pending.payload, attempt=pending.attempts,
                )
            frame = pending.frame
            if frame is None:
                frame = _DataFrame(pending.seq, pending.payload, needs_ack=True)
                frame.cached_size = wire_size(frame)
                pending.frame = frame
            if pending.attempts > 1:
                self._c_retransmits.inc()
                self._c_retransmit_bytes.inc(frame.cached_size)
            self.net.send(self.name, pending.dst, frame)
            delay = self.config.retry.backoff(pending.attempts, self.sim.rng)
        self._arm_retransmit(pending, delay)

    def _on_ack_timeout(self, pending: _Pending) -> None:
        """``pending``'s ack deadline passed: give up or try again."""
        retry = self.config.retry
        now = self.sim.now()
        if pending.transmitted:
            breaker = self.breaker(pending.dst)
            if breaker is not None:
                breaker.record_failure()
            spent = not retry.allows(pending.attempts + 1, pending.started_at, now)
        else:
            # suppressed by the breaker: no attempt was spent, but the
            # frame's deadline runs all the same
            spent = retry.expired(pending.started_at, now)
        if spent:
            del self._pending[(pending.dst, pending.seq)]
            if not self._pending:
                self._stop_clock()
            self._c_gaveup.inc()
            if self.tracer is not None:
                self.tracer.record(
                    hops.CHANNEL_GIVEUP, self.name,
                    channel=self.name, dst=pending.dst, seq=pending.seq,
                    attempts=pending.attempts,
                )
            if pending.on_giveup is not None:
                pending.on_giveup()
            return
        if not self.up:
            return  # frozen while down; recover() re-kicks
        self._transmit(pending)

    # ------------------------------------------------------------------
    # the retransmit clock: one set of kernel alarms for every deadline
    #
    # A transmit reserves its deadline's event seq with sim.next_seq()
    # exactly where a per-frame call_after timer drew it, so every other
    # event keeps its seq, and pushes [deadline, seq, pending] onto a
    # heap ordered like the kernel's own.  Alarms are kernel events at
    # entry slots, kept so that the earliest sits at or before the
    # earliest live entry: that entry's deadline then fires at its own
    # (deadline, seq), as its timer would have.  An ack only clears the
    # entry's pending slot (a dead entry pins nothing); an alarm that
    # finds its entry dead is a stale fire.  Every fire re-arms at the
    # earliest live entry unless an alarm already covers it, and a new
    # entry that undercuts the earliest alarm gets an alarm of its own —
    # never a cancel-and-rearm, because a cancelled seq stays queued as
    # a tombstone and may not be scheduled again.  Alarms are cancelled
    # only when no frame is pending or on crash(), and every entry goes
    # with them, so no seq of theirs can come back.

    def _arm_retransmit(self, pending: _Pending, delay: float) -> None:
        sim = self.sim
        entry = [sim.clock._now + delay, sim.next_seq(), pending]
        pending.entry = entry
        heappush(self._retx, entry)
        alarms = self._alarms
        if not alarms:
            self._arm(entry)
        elif entry < alarms[-1][0]:  # (deadline, seq): seqs are unique
            self.undercut_alarms += 1
            self._arm(entry)

    def _arm(self, entry: List[Any]) -> None:
        self._alarms.append(
            (entry, self.sim.call_at_seq(entry[0], entry[1], self._on_alarm))
        )

    def _on_alarm(self) -> None:
        entry = self._alarms.pop()[0]
        pending = entry[2]
        if pending is None:
            self.stale_fires += 1
            self._rearm()
            return
        # the earliest live deadline: retire it and re-arm for the rest
        # before the timeout schedules anything new
        entry[2] = None
        self._dead += 1
        self._rearm()
        self._on_ack_timeout(pending)

    def _rearm(self) -> None:
        """Drop dead heads; arm at the earliest live entry unless an
        alarm already sits at or before it."""
        heap = self._retx
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        if heap and (not self._alarms or heap[0] < self._alarms[-1][0]):
            self._arm(heap[0])

    def _disarm(self, pending: _Pending) -> None:
        """``pending`` was acked while other frames are still pending."""
        pending.entry[2] = None
        self._dead += 1
        heap = self._retx
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 > len(heap):
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._dead = 0

    def _stop_clock(self) -> None:
        """Cancel every alarm and drop every entry: no frame is pending,
        or the channel crashed (``recover`` transmits on fresh seqs)."""
        for _, handle in self._alarms:
            handle.cancel()
        self._alarms.clear()
        for entry in self._retx:
            entry[2] = None  # crash: unpin the frames still pending
        self._retx.clear()
        self._dead = 0

    # ------------------------------------------------------------------
    # receiving

    def _on_frame(self, src: str, frame: Any) -> None:
        if isinstance(frame, _AckFrame):
            pending = self._pending.pop((src, frame.seq), None)
            if pending is None:
                return  # duplicate ack
            if self._pending:
                self._disarm(pending)
            else:
                self._stop_clock()
            breaker = self.breaker(src)
            if breaker is not None:
                breaker.record_success()
            self._c_acked.inc()
            rtt = self.sim.now() - pending.started_at
            self._h_delivery_time.observe(rtt)
            if self.tracer is not None:
                self.tracer.record(
                    hops.CHANNEL_ACKED, self.name,
                    channel=self.name, dst=src, seq=frame.seq, rtt=rtt,
                )
            if pending.on_delivered is not None:
                pending.on_delivered()
            return
        if type(frame) is not _DataFrame:
            raise WireError(
                f"channel {self.name!r}: {type(frame).__name__} payload from "
                f"{src!r} is not a channel frame"
            )
        if frame.needs_ack:
            # always ack, even duplicates: the previous ack may be the
            # thing that was lost
            self.net.send(self.name, src, _AckFrame(frame.seq))
        seen = self._seen.get(src)
        if seen is None:
            seen = self._seen[src] = _SeenSeqs()
        if not seen.add(frame.seq):
            self._c_duplicates_dropped.inc()
            return
        if self.config.ordered and frame.needs_ack:
            self._deliver_ordered(src, frame.seq, frame.payload)
        else:
            self._deliver(src, frame.payload)

    def _deliver_ordered(self, src: str, seq: int, payload: Any) -> None:
        expected = self._expected.get(src, 0)
        if seq != expected:
            self._c_held_for_order.inc()
            self._holdback.setdefault(src, {})[seq] = payload
            return
        self._deliver(src, payload)
        expected += 1
        holdback = self._holdback.get(src, {})
        while expected in holdback:
            self._deliver(src, holdback.pop(expected))
            expected += 1
        self._expected[src] = expected

    def _deliver(self, src: str, payload: Any) -> None:
        if type(payload) is _GroupPayload:
            # unpack a group frame into per-message handler calls; the
            # frame was acked/deduped/ordered as one unit above
            self._c_frames_received.inc()
            for message in payload.payloads:
                self._deliver_one(src, message)
            return
        self._deliver_one(src, payload)

    def _deliver_one(self, src: str, payload: Any) -> None:
        self._c_received.inc()
        if self.handler is not None:
            self.handler(src, payload)
        else:
            self._c_unhandled.inc()

    # ------------------------------------------------------------------
    # failure model (Failable protocol)

    def crash(self) -> None:
        """Take the endpoint off the network and stop the retransmit
        clock (pending frames are kept — the session state is durable)."""
        self.up = False
        if self.net.endpoint(self.name) is not None:
            self.net.set_up(self.name, False)
        # close open batch frames: reliable ones park in _pending for
        # recover() to re-kick; fire-and-forget ones die at the sender
        self.flush_all()
        self._stop_clock()

    def recover(self) -> None:
        """Rejoin the network and re-kick every pending frame.

        A no-op on a channel that is already up: its pending frames
        still have deadlines on the clock, and a second ``_transmit``
        each would start a second retransmit chain per frame.
        """
        if self.up:
            return
        self.up = True
        if self.net.endpoint(self.name) is not None:
            self.net.set_up(self.name, True)
        for key in sorted(self._pending):
            self._transmit(self._pending[key])

    # ------------------------------------------------------------------
    # introspection

    @property
    def pending_count(self) -> int:
        """Frames sent but not yet acked (reliable mode only)."""
        return len(self._pending)

    def pending_unacked(self) -> List[Tuple[str, int]]:
        """Sorted ``(dst, seq)`` pairs of frames awaiting an ack.

        Open (unflushed) batch frames are excluded — they have not hit
        the wire, so there is nothing for an ack to clear.  The batch-ack
        invariant this exposes: an ack for frame seq N clears exactly
        frame N's entry, never creeping past a lost neighbouring frame.
        """
        return sorted(self._pending)
