"""Consumers: simulated processing nodes for pubsub delivery.

A :class:`Consumer` models a consumer application instance:

- it processes deliveries **serially** with a configurable service time
  (this is what makes head-of-line blocking observable, §3.2.3);
- it acknowledges a message only after the handler finishes — crashing
  mid-processing loses the ack (even if the consumer has recovered by
  the time the service would have ended), and the subscription's lease
  expiry redelivers (at-least-once);
- it can crash and recover (the §3.1 "data center under maintenance for
  multiple days" scenario is ``consumer.crash(); ...; recover()``).

:class:`ConsumerGroup` and :class:`FreeConsumer` are the two §2 consumer
models: a group shares a subscription (each message handled by one
member); a free consumer gets its *own* subscription and therefore every
message in the topic.
"""

from __future__ import annotations

from typing import Any, Callable, Deque, List, Optional, Protocol, TYPE_CHECKING
from collections import deque

from repro.pubsub.message import Message
from repro.sim.kernel import Simulation

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.subscription import Subscription

#: Handler result: True/None = success (ack); False = failure (nack).
Handler = Callable[[Message], Optional[bool]]

#: Batch handler: one invocation applies N messages (group-apply).
#: Same result convention; False nacks the whole group.
BatchHandler = Callable[[List[Message]], Optional[bool]]


class Receipt(Protocol):
    """What a consumer settles a delivery with (see :meth:`Consumer.deliver`)."""

    def ack(self) -> None: ...

    def nack(self) -> None: ...


class _Finisher:
    """Ends a consumer's in-service item when its service time is up.

    The loop is serial, so the item lives on the consumer and the posted
    event needs no closure.  Each epoch has its own finisher:
    :meth:`Consumer.crash` swaps in a fresh one, and a finish posted
    before the crash finds itself stale and ends into nothing (the ack
    is lost, the lease redelivers).
    """

    __slots__ = ("consumer",)

    def __init__(self, consumer: "Consumer") -> None:
        self.consumer = consumer

    def __call__(self) -> None:
        consumer = self.consumer
        if consumer._finisher is not self:
            return
        message, receipt = consumer._in_service
        consumer._in_service = None
        consumer._complete(message, receipt)
        consumer._process_next()


class Consumer:
    """One consumer application instance with a serial processing loop."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        handler: Optional[Handler] = None,
        service_time: float = 0.0,
        service_time_fn: Optional[Callable[[Message], float]] = None,
        batch_handler: Optional[BatchHandler] = None,
        batch_overhead: float = 0.0,
    ) -> None:
        if service_time < 0:
            raise ValueError("service_time must be >= 0")
        if batch_overhead < 0:
            raise ValueError("batch_overhead must be >= 0")
        self.sim = sim
        self.name = name
        self.handler = handler or (lambda message: True)
        #: when set, a batched delivery is applied by ONE invocation of
        #: this handler (group-apply); otherwise the per-message handler
        #: runs over the group in order
        self.batch_handler = batch_handler
        self.service_time = service_time
        #: when set, overrides ``service_time`` per message (lets work
        #: queues model heterogeneous task costs and warm/cold state)
        self.service_time_fn = service_time_fn
        #: fixed per-delivery cost added to a batch's summed service
        #: time — the knob that makes per-message dispatch overhead
        #: (and therefore batching's throughput win) modelable
        self.batch_overhead = batch_overhead
        self.up = True
        self.processed = 0
        self.failed = 0
        self.dropped_while_down = 0
        self._queue: Deque[tuple[Any, Receipt]] = deque()
        self._busy = False
        #: the (message, receipt) queue item in service, while it takes time
        self._in_service: Optional[tuple[Any, Receipt]] = None
        #: replaced by crash(): a service begun before it ends into nothing
        self._finisher = _Finisher(self)
        self._on_recover: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # delivery entry point (called by Subscription)

    def deliver(self, message: Message, receipt: Receipt) -> None:
        """Receive one delivery; queues it for serial processing.

        The consumer settles the delivery by calling ``receipt.ack()``
        once the handler succeeded, or ``receipt.nack()`` once it failed
        (redeliver now, or dead-letter).  A receipt settles by
        ``(partition, offset)``, not by attempt: whichever lease holds
        that offset when the call lands is the one it ends.  So a late
        ack from an earlier attempt, whose lease already expired and
        redelivered, acks the current attempt's lease; once nothing
        holds the offset (acked, dead-lettered, seeked past), the call
        is a no-op.

        While down, deliveries are dropped on the floor — the broker's
        lease expiry will redeliver them later.
        """
        if not self.up:
            self.dropped_while_down += 1
            return
        self._queue.append((message, receipt))
        if not self._busy:
            self._busy = True
            self.sim.post(0.0, self._process_next)

    def deliver_batch(self, messages: List[Message], receipt: Receipt) -> None:
        """Receive a group delivery; processed as ONE work item.

        The group occupies a single queue slot and is applied by a
        single handler invocation (``batch_handler`` if set), paying
        ``batch_overhead`` once plus the summed per-message service
        time — N messages for one dispatch's fixed cost.  One
        ``receipt`` call settles every message of the group, each by
        its own offset, as in :meth:`deliver`.
        """
        if not self.up:
            self.dropped_while_down += len(messages)
            return
        self._queue.append((messages, receipt))
        if not self._busy:
            self._busy = True
            self.sim.post(0.0, self._process_next)

    def _process_next(self) -> None:
        """Serve the queue in order.  Zero-service-time items complete
        inline — in a loop, so a long run of them cannot overflow the
        stack — and the first item that takes time parks the loop until
        its finish event."""
        queue = self._queue
        while self.up and queue:
            item = queue.popleft()
            message, receipt = item
            if type(message) is list:
                if self.service_time_fn is not None:
                    delay = sum(self.service_time_fn(m) for m in message)
                else:
                    delay = self.service_time * len(message)
                delay += self.batch_overhead
            elif self.service_time_fn is not None:
                delay = self.service_time_fn(message)
            else:
                delay = self.service_time
            if delay > 0:
                self._in_service = item
                self.sim.post(delay, self._finisher)
                return
            self._complete(message, receipt)
        self._busy = False

    def _complete(self, message: Any, receipt: Receipt) -> None:
        """Run the handler over one work item and ack or nack it."""
        is_batch = type(message) is list
        try:
            ok = self._handle_batch(message) if is_batch else self.handler(message)
        except Exception:
            ok = False
        count = len(message) if is_batch else 1
        if ok is False:
            self.failed += count
            receipt.nack()
        else:
            self.processed += count
            receipt.ack()

    def _handle_batch(self, messages: List[Message]) -> Optional[bool]:
        if self.batch_handler is not None:
            return self.batch_handler(messages)
        for message in messages:
            if self.handler(message) is False:
                return False
        return True

    # ------------------------------------------------------------------
    # failure model (Failable protocol)

    def crash(self) -> None:
        """Stop processing; queued and in-process deliveries are lost."""
        self.up = False
        self._queue.clear()
        self._busy = False
        self._in_service = None
        self._finisher = _Finisher(self)

    def recover(self) -> None:
        """Resume; redeliveries arrive via broker deadlines/pumps."""
        if self.up:
            return
        self.up = True
        for callback in list(self._on_recover):
            callback()

    def on_recover(self, callback: Callable[[], None]) -> None:
        """Register a hook run after recovery (subscriptions use this to
        pump promptly instead of waiting for the next publish)."""
        self._on_recover.append(callback)


class ConsumerGroup:
    """Convenience wrapper: a subscription plus its member consumers."""

    def __init__(self, subscription: "Subscription") -> None:
        self.subscription = subscription
        self.consumers: List[Consumer] = []

    def join(self, consumer: Consumer) -> Consumer:
        self.consumers.append(consumer)
        self.subscription.add_member(consumer)
        consumer.on_recover(self.subscription.pump_all)
        return consumer

    def leave(self, consumer: Consumer) -> None:
        if consumer in self.consumers:
            self.consumers.remove(consumer)
        self.subscription.remove_member(consumer.name)

    @property
    def total_processed(self) -> int:
        return sum(c.processed for c in self.consumers)

    def backlog(self) -> int:
        return self.subscription.backlog()


class FreeConsumer:
    """A free consumer: a dedicated subscription delivering everything
    in the topic to one consumer (terminology from Koutanov, §2)."""

    def __init__(self, subscription: "Subscription", consumer: Consumer) -> None:
        self.subscription = subscription
        subscription.add_member(consumer)
        consumer.on_recover(subscription.pump_all)
