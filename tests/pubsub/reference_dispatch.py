"""Closure dispatch: the spec the slotted delivery receipts refine.

``ReferenceDispatchSubscription`` is ``Subscription`` with the
dispatch it had before receipts: each delivery posts a closure that
calls the consumer, and ``ack``/``nack`` are closures over the
subscription, the partition and the message (the group flavour over
the offsets list).  ``CallableReceipt`` wraps those closures into the
receipt shape ``Consumer.deliver`` takes.  ``test_receipt_dispatch.py``
demands that no program can tell the two apart.  Test-only, never
imported from ``src/``.
"""

from repro.obs.trace import hops, payload_version
from repro.pubsub.subscription import Subscription


class CallableReceipt:
    """A delivery receipt that runs the callables it was given."""

    def __init__(self, ack, nack) -> None:
        self.ack = ack
        self.nack = nack


class ReferenceDispatchSubscription(Subscription):
    def _dispatch(self, partition, message, attempts) -> None:
        member = self._route(message)
        self._lease(self._state[partition], message, attempts)
        if member is None:
            return
        consumer = self._members[member]
        self.delivered += 1
        if attempts > 1:
            self.redelivered += 1
        if self.tracer is not None:
            self.tracer.record(
                hops.PUBSUB_DELIVER, "broker",
                key=message.key, version=payload_version(message.payload),
                subscription=self.name, member=member,
                partition=partition, offset=message.offset, attempts=attempts,
            )
        self.sim.post(
            self.config.delivery_latency,
            lambda: consumer.deliver(message, CallableReceipt(
                ack=lambda: self.ack(partition, message.offset),
                nack=lambda: self.nack(partition, message.offset),
            )),
        )

    def _dispatch_group(self, partition, messages, member) -> None:
        if not messages:
            return
        state = self._state[partition]
        consumer = self._members[member]
        for message in messages:
            self._lease(state, message, 1)
            self.delivered += 1
            if self.tracer is not None:
                self.tracer.record(
                    hops.PUBSUB_DELIVER, "broker",
                    key=message.key, version=payload_version(message.payload),
                    subscription=self.name, member=member,
                    partition=partition, offset=message.offset, attempts=1,
                    n_events=len(messages),
                )
        batch = list(messages)
        offsets = [message.offset for message in messages]
        self.sim.post(
            self.config.delivery_latency,
            lambda: consumer.deliver_batch(batch, CallableReceipt(
                ack=lambda: self.ack_batch(partition, offsets),
                nack=lambda: self.nack_batch(partition, offsets),
            )),
        )
