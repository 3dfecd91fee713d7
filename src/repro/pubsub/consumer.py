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

from typing import Any, Callable, Deque, List, Optional, TYPE_CHECKING
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


class Consumer:
    """One consumer application instance with a serial processing loop."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        handler: Optional[Handler] = None,
        service_time: float = 0.0,
        service_time_fn: Optional[Callable[[Message], float]] = None,
        queue_capacity: Optional[int] = None,
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
        self.queue_capacity = queue_capacity
        self.up = True
        self.processed = 0
        self.failed = 0
        self.dropped_while_down = 0
        self._queue: Deque[tuple[Message, Callable[[], None], Callable[[], None]]] = deque()
        self._busy = False
        #: bumped by crash(): a service begun before it ends into nothing
        self._epoch = 0
        self._on_recover: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # delivery entry point (called by Subscription)

    def deliver(self, message: Message, ack: Callable[[], None], nack: Callable[[], None]) -> None:
        """Receive one delivery; queues it for serial processing.

        While down, deliveries are dropped on the floor — the broker's
        lease expiry will redeliver them later.
        """
        if not self.up:
            self.dropped_while_down += 1
            return
        if self.queue_capacity is not None and len(self._queue) >= self.queue_capacity:
            # local overload: refuse so the broker redelivers later
            nack()
            return
        self._queue.append((message, ack, nack))
        if not self._busy:
            self._busy = True
            self.sim.post(0.0, self._process_next)

    def deliver_batch(
        self,
        messages: List[Message],
        ack: Callable[[], None],
        nack: Callable[[], None],
    ) -> None:
        """Receive a group delivery; processed as ONE work item.

        The group occupies a single queue slot and is applied by a
        single handler invocation (``batch_handler`` if set), paying
        ``batch_overhead`` once plus the summed per-message service
        time — N messages for one dispatch's fixed cost.
        """
        if not self.up:
            self.dropped_while_down += len(messages)
            return
        if self.queue_capacity is not None and len(self._queue) >= self.queue_capacity:
            nack()
            return
        self._queue.append((messages, ack, nack))
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
            message, ack, nack = queue.popleft()
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
                epoch = self._epoch
                self.sim.post(
                    delay, lambda: self._finish(epoch, message, ack, nack)
                )
                return
            self._complete(message, ack, nack)
        self._busy = False

    def _finish(
        self, epoch: int, message: Any,
        ack: Callable[[], None], nack: Callable[[], None],
    ) -> None:
        if epoch != self._epoch:
            return  # crashed mid-service: the ack is lost, the lease redelivers
        self._complete(message, ack, nack)
        self._process_next()

    def _complete(
        self, message: Any, ack: Callable[[], None], nack: Callable[[], None]
    ) -> None:
        """Run the handler over one work item and ack or nack it."""
        is_batch = type(message) is list
        try:
            ok = self._handle_batch(message) if is_batch else self.handler(message)
        except Exception:
            ok = False
        count = len(message) if is_batch else 1
        if ok is False:
            self.failed += count
            nack()
        else:
            self.processed += count
            ack()

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
        self._epoch += 1

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

    @property
    def queue_depth(self) -> int:
        return len(self._queue)


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
        self.consumer = consumer
        subscription.add_member(consumer)
        consumer.on_recover(subscription.pump_all)

    @property
    def processed(self) -> int:
        return self.consumer.processed

    def backlog(self) -> int:
        return self.subscription.backlog()
