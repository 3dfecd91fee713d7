"""Differential test: the lease watchdog against per-message deadline timers.

``Subscription`` keeps one watchdog timer per subscription, armed at its
oldest lease; ``tests/pubsub/reference_subscription.py`` restores one
``call_after(ack_timeout, ...)`` timer per delivery.  Hypothesis writes
the programs — several partitions, several subscriptions dispatching at
one instant, crashes and recoveries (also mid-service), nacks,
``seek``, ``remove_member``, dead-lettering after ``max_attempts``,
``queue_capacity`` refusals, delivery jitter and grouped deliveries —
and both must produce the same delivery log ``(time, subscription,
member, offset, attempts)`` with its ack/nack/gap records, the same
handler calls, counters and DLQ contents, and the same clock after an
unbounded ``run()``.

Tier-1 runs the small ``pubsub-lease-dev`` profile; CI reruns this file
with ``PUBSUB_LEASE_PROFILE=pubsub-lease-ci`` for a deeper search.
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
from tests.pubsub.reference_subscription import ReferenceSubscription

settings.register_profile(
    "pubsub-lease-dev", settings(max_examples=60, deadline=None)
)
settings.register_profile(
    "pubsub-lease-ci", settings(max_examples=1500, deadline=None)
)
_PROFILE = settings.get_profile(
    os.environ.get("PUBSUB_LEASE_PROFILE", "pubsub-lease-dev")
)

#: (ack_timeout, service_time) pairs: a sub-slot timeout (heap), wheel
#: level 0 and level 1, each with a service time short enough that
#: duplicate redeliveries cannot snowball (every program terminates)
_TIMING = [
    (0.125, 0.0), (0.125, 0.002), (0.5, 0.0), (0.5, 0.002),
    (2.0, 0.01), (70.0, 0.0), (70.0, 0.3),
]


@st.composite
def _subscription(draw):
    ack_timeout, service_time = draw(st.sampled_from(_TIMING))
    latency = draw(st.sampled_from([0.0, 0.001, 0.125]))
    config = SubscriptionConfig(
        routing=draw(st.sampled_from(list(RoutingPolicy))),
        max_inflight_per_partition=draw(st.sampled_from([1, 2, 4, 64])),
        ack_timeout=ack_timeout,
        delivery_latency=latency,
        delivery_jitter=draw(st.sampled_from([0.0, 0.0, 0.05])),
        dead_letter=draw(st.none() | st.builds(
            DeadLetterPolicy, dlq_topic=st.just("dlq"),
            max_attempts=st.integers(1, 4),
        )),
        max_delivery_batch=draw(st.sampled_from([1, 1, 3])),
    )
    # a refusal redelivers after the delivery latency: with none, a full
    # queue would refuse the same message forever at one instant
    capacities = st.sampled_from([None, None, 1, 3]) if latency else st.just(None)
    consumers = draw(st.lists(capacities, min_size=1, max_size=3))
    return config, service_time, consumers


_SPECS = st.tuples(
    st.integers(1, 4),  # partitions
    st.lists(_subscription(), min_size=1, max_size=3),
    st.sampled_from([0, 2, 3]),  # payloads divisible by this fail once
)

_ACTIONS = st.one_of(
    st.tuples(st.just("publish"), st.integers(1, 8), st.integers(1, 5)),
    st.tuples(st.just("crash"), st.integers(0, 8)),
    st.tuples(st.just("recover"), st.integers(0, 8)),
    st.tuples(st.just("remove"), st.integers(0, 8)),
    st.tuples(st.just("rejoin"), st.integers(0, 8)),
    st.tuples(
        st.just("seek"), st.integers(0, 2), st.integers(0, 3),
        st.floats(0.0, 1.0),
    ),
    st.tuples(
        st.just("run"),
        st.sampled_from([0.0, 0.001, 0.0625, 0.125, 0.3, 0.5, 2.0, 80.0]),
    ),
)
_PROGRAMS = st.lists(_ACTIONS, max_size=20)


class _World:
    """One topic, its subscriptions and their consumers on one kernel.

    Built without a ``Broker`` so nothing reschedules itself forever
    (its GC sweeps would) and an unbounded ``run()`` drains.  The world
    is also the subscriptions' tracer: every deliver/ack/nack/gap record
    lands in :attr:`log` with the time it was made.
    """

    def __init__(self, subscription_cls, spec) -> None:
        partitions, subscriptions, fail_mod = spec
        self.sim = sim = Simulation(seed=5)
        self.topic = Topic("t", num_partitions=partitions, clock=sim.now)
        self.fail_mod = fail_mod
        self.log = []
        self.dlq = []
        self.seen = Counter()
        self.subs = []
        self.consumers = []  # (subscription, consumer)
        self.published = 0
        for i, (config, service_time, capacities) in enumerate(subscriptions):
            name = f"s{i}"
            sub = subscription_cls(
                sim, name, self.topic, config=config, tracer=self,
                dlq_append=lambda m, name=name: self.dlq.append(
                    (sim.now(), name, m.partition, m.offset, m.payload)
                ),
            )
            for j, capacity in enumerate(capacities):
                consumer = Consumer(
                    sim, f"{name}c{j}", handler=self._handler(f"{name}c{j}", name),
                    service_time=service_time, queue_capacity=capacity,
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
            sim.run(until=sim.now() + action[1])
        else:
            sub, consumer = self.consumers[action[1] % len(self.consumers)]
            if kind == "crash":
                consumer.crash()
            elif kind == "recover":
                consumer.recover()
            elif kind == "remove":
                sub.remove_member(consumer.name)
            elif consumer.name not in sub.members():
                sub.add_member(consumer)

    def play(self, program):
        for action in program:
            self.do(action)
        # bring everyone back so every lease can end, then drain
        for sub, consumer in self.consumers:
            consumer.recover()
            if consumer.name not in sub.members():
                sub.add_member(consumer)
        final = self.sim.run()
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
        return self.log, self.dlq, counters, processed, final, self.sim.pending_events


def _assert_same(spec, program) -> None:
    got = _World(Subscription, spec).play(program)
    want = _World(ReferenceSubscription, spec).play(program)
    assert got == want
    assert got[-1] == 0  # drained: no watchdog outlives its last lease


_CRASHY = (
    1,
    [(SubscriptionConfig(ack_timeout=70.0), 0.3, [None, None])],
    0,
)


@_PROFILE
@given(_SPECS, _PROGRAMS)
# a crash mid-service, recovery, and the stale service's end: the lost
# ack's lease expires 70 s later at its own (time, seq)
@example(_CRASHY, [
    ("publish", 4, 2), ("run", 0.5), ("crash", 0), ("recover", 0),
    ("publish", 2, 2), ("run", 0.3),
])
# deliveries dropped by crashed members leave leases on every partition
# of two subscriptions expiring at one instant; a seek drops the watched
# lease (a stale watchdog fire), a member leaves, and the expiries
# redeliver to nobody, then to the recovered members, in lease order
@example(
    (3, [
        (SubscriptionConfig(ack_timeout=0.5, routing=RoutingPolicy.KEY), 0.0, [None]),
        (SubscriptionConfig(ack_timeout=0.5), 0.0, [None, None]),
    ], 0),
    [
        ("publish", 6, 3), ("run", 0.0), ("crash", 0), ("crash", 1),
        ("crash", 2), ("seek", 0, 0, 0.0), ("remove", 2), ("run", 0.5),
        ("recover", 0), ("recover", 1), ("run", 0.5),
    ],
)
def test_watchdog_is_indistinguishable_from_per_message_timers(spec, program):
    _assert_same(spec, program)


def test_dead_letters_and_refusals_match_reference():
    """Fixed program: max_attempts exhausted while every member is down
    (deliveries in flight are dropped, then leases expire to nobody), and
    one-slot queues refusing single and grouped deliveries."""
    spec = (
        2,
        [
            (
                SubscriptionConfig(
                    ack_timeout=0.125, delivery_jitter=0.05,
                    dead_letter=DeadLetterPolicy("dlq", max_attempts=2),
                ),
                0.002, [1, None],
            ),
            (SubscriptionConfig(ack_timeout=0.5, max_delivery_batch=3), 0.0, [1]),
        ],
        3,
    )
    program = [
        ("publish", 8, 4), ("run", 0.0), ("crash", 0), ("crash", 1),
        ("run", 0.3), ("recover", 0), ("recover", 1), ("publish", 8, 4),
        ("run", 2.0),
    ]
    _assert_same(spec, program)
    world = _World(Subscription, spec)
    world.play(program)
    assert world.dlq and world.subs[0].dead_lettered == len(world.dlq)
    nacks = sum(1 for entry in world.log if entry[1] == "pubsub.nack")
    failed = sum(c.failed for _, c in world.consumers)
    assert 0 < failed < nacks  # handler failures, and refusals on top
