"""Differential test: slotted delivery receipts against closure dispatch.

``Subscription`` posts one ``_Receipt`` (or ``_BatchReceipt``) per
delivery and hands it to the consumer, which acks or nacks through it;
``tests/pubsub/reference_dispatch.py`` restores the closure tree each
delivery used to build.  Hypothesis writes the programs — several
partitions and subscriptions, publishes, consumer crash/recover,
handler failures (nacks), dead-lettering, ``seek``, grouped deliveries
(``max_delivery_batch`` > 1), service times longer than the lease, and
receipts settled late, after their lease expired and redelivered — and
both must produce the same delivery log ``(time, hop, attributes)``
with its ack/nack/gap records in the same order, the same handler
calls, counters and DLQ contents, and the same clock after an
unbounded ``run()``.

Tier-1 runs the small ``pubsub-receipt-dev`` profile; CI reruns this
file with ``PUBSUB_RECEIPT_PROFILE=pubsub-receipt-ci`` for a deeper
search.
"""

from __future__ import annotations

import os
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.pubsub.consumer import Consumer
from repro.pubsub.dlq import DeadLetterPolicy
from repro.pubsub.subscription import RoutingPolicy, Subscription, SubscriptionConfig
from repro.pubsub.topic import Topic
from repro.sim.kernel import Simulation
from tests.pubsub.reference_dispatch import ReferenceDispatchSubscription

settings.register_profile(
    "pubsub-receipt-dev", settings(max_examples=60, deadline=None)
)
settings.register_profile(
    "pubsub-receipt-ci", settings(max_examples=1500, deadline=None)
)
_PROFILE = settings.get_profile(
    os.environ.get("PUBSUB_RECEIPT_PROFILE", "pubsub-receipt-dev")
)

#: (ack_timeout, service_time): leases that outlive the service, and
#: leases that expire mid-service so the consumer's own ack lands late
#: on the redelivered attempt's lease
_TIMING = [(0.125, 0.0), (0.5, 0.002), (70.0, 0.3), (0.125, 0.2), (0.5, 0.7)]

_DEAD_LETTER = st.builds(
    DeadLetterPolicy, dlq_topic=st.just("dlq"), max_attempts=st.integers(2, 4),
)


@st.composite
def _subscription(draw):
    ack_timeout, service_time = draw(st.sampled_from(_TIMING))
    # a lease shorter than the service redelivers every message behind
    # a queue that grows faster than it drains: only dead-lettering
    # bounds the copies, so those subscriptions always dead-letter
    slow = service_time > ack_timeout
    config = SubscriptionConfig(
        routing=draw(st.sampled_from(list(RoutingPolicy))),
        max_inflight_per_partition=draw(st.sampled_from([1, 2, 4, 64])),
        ack_timeout=ack_timeout,
        delivery_latency=draw(st.sampled_from([0.0, 0.001, 0.125])),
        dead_letter=draw(_DEAD_LETTER if slow else st.none() | _DEAD_LETTER),
        max_delivery_batch=draw(st.sampled_from([1, 2, 3])),
    )
    return config, service_time, draw(st.integers(1, 3))


_SPECS = st.tuples(
    st.integers(1, 4),  # partitions
    st.lists(_subscription(), min_size=1, max_size=3),
    st.sampled_from([0, 2, 3]),  # payloads divisible by this fail once
)

_ACTIONS = st.one_of(
    st.tuples(st.just("publish"), st.integers(1, 8), st.integers(1, 5)),
    st.tuples(st.just("crash"), st.integers(0, 8)),
    st.tuples(st.just("recover"), st.integers(0, 8)),
    st.tuples(
        st.just("seek"), st.integers(0, 2), st.integers(0, 3),
        st.floats(0.0, 1.0),
    ),
    st.tuples(st.just("ack"), st.integers(0, 64)),
    st.tuples(st.just("nack"), st.integers(0, 64)),
    st.tuples(
        st.just("run"),
        st.sampled_from([0.0, 0.001, 0.0625, 0.125, 0.3, 0.5, 2.0, 80.0]),
    ),
)
_PROGRAMS = st.lists(_ACTIONS, max_size=20)

#: far above what any program fires; a dispatch that stops settling
#: leases redelivers forever, and this turns that into a failure
_MAX_EVENTS = 2_000_000


class _KeepingConsumer(Consumer):
    """A consumer that also keeps every receipt it is handed, so a
    program can settle one again later — after its lease expired."""

    def __init__(self, *args, receipts, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._receipts = receipts

    def deliver(self, message, receipt) -> None:
        self._receipts.append(receipt)
        super().deliver(message, receipt)

    def deliver_batch(self, messages, receipt) -> None:
        self._receipts.append(receipt)
        super().deliver_batch(messages, receipt)


class _World:
    """One topic, its subscriptions and their consumers on one kernel,
    without a ``Broker`` (whose sweeps reschedule forever) so an
    unbounded ``run()`` drains.  The world is the subscriptions'
    tracer: every deliver/ack/nack/gap record lands in :attr:`log`."""

    def __init__(self, subscription_cls, spec) -> None:
        partitions, subscriptions, fail_mod = spec
        self.sim = sim = Simulation(seed=7)
        self.topic = Topic("t", num_partitions=partitions, clock=sim.now)
        self.fail_mod = fail_mod
        self.log = []
        self.dlq = []
        self.seen = Counter()
        self.receipts = []
        self.subs = []
        self.consumers = []  # (subscription, consumer)
        self.published = 0
        for i, (config, service_time, members) in enumerate(subscriptions):
            name = f"s{i}"
            sub = subscription_cls(
                sim, name, self.topic, config=config, tracer=self,
                dlq_append=lambda m, name=name: self.dlq.append(
                    (sim.now(), name, m.partition, m.offset, m.payload)
                ),
            )
            for j in range(members):
                consumer = _KeepingConsumer(
                    sim, f"{name}c{j}", handler=self._handler(f"{name}c{j}", name),
                    service_time=service_time, receipts=self.receipts,
                )
                sub.add_member(consumer)
                consumer.on_recover(sub.pump_all)
                self.consumers.append((sub, consumer))
            self.subs.append(sub)

    def record(self, hop, component, **attrs) -> None:
        self.log.append((self.sim.now(), hop, sorted(attrs.items())))

    def _handler(self, consumer_name, sub_name):
        def handle(message):
            self.log.append(
                (self.sim.now(), "handled", consumer_name, message.offset)
            )
            identity = (sub_name, message.partition, message.offset)
            self.seen[identity] += 1
            if self.fail_mod and message.payload % self.fail_mod == 0:
                return self.seen[identity] > 1  # the first attempt nacks
            return True

        return handle

    def do(self, action) -> None:
        kind, sim = action[0], self.sim
        if kind == "publish":
            _, n, keys = action
            for _ in range(n):
                message = self.topic.append(f"k{self.published % keys}", self.published)
                self.published += 1
                for sub in self.subs:  # a broker's wake at zero publish latency
                    sub.pump(message.partition)
        elif kind == "seek":
            _, s, partition, fraction = action
            sub = self.subs[s % len(self.subs)]
            log = self.topic.partitions[partition % len(self.topic.partitions)]
            sub.seek(log.partition, int(fraction * log.next_offset))
        elif kind == "run":
            sim.run(until=sim.now() + action[1], max_events=_MAX_EVENTS)
        elif kind in ("ack", "nack"):
            if self.receipts:
                receipt = self.receipts[action[1] % len(self.receipts)]
                self.log.append((sim.now(), f"settle-{kind}"))
                getattr(receipt, kind)()
        else:
            _, consumer = self.consumers[action[1] % len(self.consumers)]
            if kind == "crash":
                consumer.crash()
            else:
                consumer.recover()

    def play(self, program):
        for action in program:
            self.do(action)
        for _, consumer in self.consumers:
            consumer.recover()
        final = self.sim.run(max_events=_MAX_EVENTS)
        counters = [
            (
                sub.delivered, sub.redelivered, sub.acked, sub.dead_lettered,
                sub.lost_to_gc, sub.lost_to_compaction, sub.backlog(),
                sub.inflight_count(),
            )
            for sub in self.subs
        ]
        processed = [
            (c.name, c.processed, c.failed, c.dropped_while_down)
            for _, c in self.consumers
        ]
        return (
            self.log, self.dlq, counters, processed, len(self.receipts),
            final, self.sim.pending_events,
        )


def _assert_same(spec, program) -> None:
    got = _World(Subscription, spec).play(program)
    want = _World(ReferenceDispatchSubscription, spec).play(program)
    assert got == want
    assert got[-1] == 0  # drained


@_PROFILE
@given(_SPECS, _PROGRAMS)
# a redelivered message, then its first receipt settled: the late ack
# ends the redelivered attempt's lease, and that attempt's own ack is
# a no-op
@example(
    (1, [(SubscriptionConfig(ack_timeout=0.125), 0.2, 1)], 0),
    [("publish", 2, 2), ("run", 0.125), ("ack", 0), ("nack", 1), ("run", 2.0)],
)
# a group delivery nacked by its handler, redelivered message by
# message, beside a subscription whose members crash mid-service
@example(
    (2, [
        (SubscriptionConfig(max_delivery_batch=3), 0.0, 1),
        (SubscriptionConfig(ack_timeout=0.5), 0.7, 2),
    ], 2),
    [
        ("publish", 6, 3), ("run", 0.001), ("crash", 1), ("run", 0.6),
        ("recover", 1), ("seek", 1, 0, 0.0), ("nack", 3), ("run", 2.0),
    ],
)
def test_receipts_are_indistinguishable_from_closure_dispatch(spec, program):
    _assert_same(spec, program)


def test_late_receipt_acks_the_current_lease():
    """Fixed program: the first attempt's lease expires mid-service, the
    message redelivers, and the first attempt's ack (its service ends
    after the expiry) lands on the second attempt's lease."""
    spec = (1, [(SubscriptionConfig(ack_timeout=0.125), 0.2, 1)], 0)
    program = [("publish", 1, 1), ("run", 0.15)]
    _assert_same(spec, program)
    world = _World(Subscription, spec)
    world.play(program)
    (sub,) = world.subs
    assert sub.redelivered >= 1 and sub.acked == 1
    acks = [entry for entry in world.log if entry[1] == "pubsub.ack"]
    assert len(acks) == 1
    # the ack came from the first attempt's service, which ended at
    # 0.2 s, after the 0.125 s lease had already redelivered
    assert acks[0][0] < 0.125 + 0.2
