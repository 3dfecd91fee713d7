"""Subscriptions: cursors, routing, acks, redelivery, silent loss.

A subscription binds a topic to a set of member consumers and owns the
delivery state machine:

- a *fetch cursor* per partition (next offset to dispatch);
- an in-flight map per partition, each delivery holding a *lease* (its
  ack deadline); an unacked message is redelivered when its lease
  expires (at-least-once).  One watchdog timer per subscription serves
  every lease (see :meth:`Subscription._on_watchdog`);
- a routing policy choosing a member per message (§2): ``RANDOM``,
  ``PARTITION`` (partitions assigned to members, Kafka-style), or
  ``KEY`` (hash of message key over current membership);
- optional dead-lettering after ``max_attempts`` (§3.3);
- **silent-loss accounting**: when the fetch cursor lands in a gap left
  by retention GC or compaction, the subscription simply skips ahead —
  the consumer receives no signal (§3.1).  The gap is tallied in
  ``lost_to_gc`` / ``lost_to_compaction`` so *experiments* can measure
  what the *application* cannot observe.

Routing deliberately knows nothing about any external auto-sharder:
"existing pubsub consumer affinity mechanisms based on the message key
or pubsub partition do not support independent, dynamic sharding of
loosely-coupled application consumers" (§3.1).  That mismatch is what
experiment E3 exploits to reproduce Figure 2.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs.trace import hops, payload_version
from repro.pubsub.dlq import DeadLetterPolicy
from repro.pubsub.message import Message
from repro.pubsub.topic import Topic
from repro.sim.kernel import EventHandle, Simulation
from repro.sim.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.consumer import Consumer


class RoutingPolicy(enum.Enum):
    """How a consumer group routes a message to a member (§2)."""

    RANDOM = "random"
    PARTITION = "partition"
    KEY = "key"


@dataclass
class SubscriptionConfig:
    """Delivery parameters."""

    routing: RoutingPolicy = RoutingPolicy.PARTITION
    max_inflight_per_partition: int = 64
    ack_timeout: float = 30.0
    delivery_latency: float = 0.001
    dead_letter: Optional[DeadLetterPolicy] = None
    #: Deliver up to this many consecutive same-member messages as one
    #: ``Consumer.deliver_batch`` call (one delivery latency, one ack
    #: round-trip for the group).  1 (default) keeps the per-message
    #: delivery path bit-for-bit unchanged.  Redeliveries always go
    #: per-message: a batch that times out re-enters the single path.
    max_delivery_batch: int = 1

    def __post_init__(self) -> None:
        if self.max_inflight_per_partition < 1:
            raise ValueError("max_inflight_per_partition must be >= 1")
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if self.delivery_latency < 0:
            raise ValueError("delivery_latency must be >= 0")
        if self.max_delivery_batch < 1:
            raise ValueError("max_delivery_batch must be >= 1")


@dataclass(slots=True)
class _Inflight:
    message: Message
    attempts: int
    #: the lease: when an unacked delivery is redelivered, and the event
    #: seq reserved for that moment at dispatch
    deadline: float
    seq: int


@dataclass
class _PartitionState:
    fetch_offset: int = 0
    inflight: Dict[int, _Inflight] = field(default_factory=dict)
    acked: int = 0  # count of acked messages (not an offset)


def _stable_hash(key: str) -> int:
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class Subscription:
    """Delivery state machine for one consumer group (or free consumer)."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        topic: Topic,
        config: SubscriptionConfig = SubscriptionConfig(),
        metrics: Optional[MetricsRegistry] = None,
        dlq_append: Optional[Callable[[Message], None]] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.topic = topic
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self._dlq_append = dlq_append
        self.tracer = tracer
        self._members: Dict[str, "Consumer"] = {}
        self._member_order: List[str] = []  # stable order for assignment
        self._partition_assignment: Dict[int, str] = {}
        self._state: Dict[int, _PartitionState] = {}
        for log in topic.partitions:
            self._state[log.partition] = _PartitionState()
        # silent-loss tallies (observable by experiments, not by members)
        self.lost_to_gc = 0
        self.lost_to_compaction = 0
        self.delivered = 0
        self.redelivered = 0
        self.acked = 0
        self.dead_lettered = 0
        self._pump_scheduled: Dict[int, bool] = {p: False for p in self._state}
        #: one pre-bound pump callable per partition (posted, never cancelled)
        self._pumps: Dict[int, Callable[[], None]] = {
            p: (lambda p=p: self._do_pump(p)) for p in self._state
        }
        #: leases held across all partitions; the watchdog is pending
        #: exactly while this is non-zero (see _on_watchdog)
        self._leases = 0
        self._watchdog: Optional[EventHandle] = None
        self._watched: Optional[_Inflight] = None

    # ------------------------------------------------------------------
    # membership

    def add_member(self, consumer: "Consumer") -> None:
        """Join a consumer to the group and rebalance."""
        if consumer.name in self._members:
            raise ValueError(f"member {consumer.name!r} already in {self.name!r}")
        self._members[consumer.name] = consumer
        self._member_order.append(consumer.name)
        self._rebalance()
        self.pump_all()

    def remove_member(self, name: str) -> None:
        """Remove a member; its in-flight messages redeliver on deadline."""
        if name not in self._members:
            return
        del self._members[name]
        self._member_order.remove(name)
        self._rebalance()
        self.pump_all()

    def _rebalance(self) -> None:
        """Round-robin partitions over members (PARTITION routing)."""
        self._partition_assignment.clear()
        if not self._member_order:
            return
        for idx, partition in enumerate(sorted(self._state)):
            member = self._member_order[idx % len(self._member_order)]
            self._partition_assignment[partition] = member

    def _up_members(self) -> List[str]:
        return [m for m in self._member_order if self._members[m].up]

    # ------------------------------------------------------------------
    # routing

    def _route(self, message: Message) -> Optional[str]:
        """Pick the member for a message, or None if nobody can take it."""
        routing = self.config.routing
        if routing is RoutingPolicy.PARTITION:
            # fast path: the assigned member is up (the steady state) —
            # skip building the up-members list per message.  Identical
            # answers: the old code only consulted that list when the
            # assignment was missing or its member down.
            member = self._partition_assignment.get(message.partition)
            if member is not None and self._members[member].up:
                return member
            up = self._up_members()
            if not up:
                return None
            # assigned member down: realistic groups failover after a
            # rebalance; model that as deterministic fallback over up members
            return up[message.partition % len(up)]
        up = self._up_members()
        if not up:
            return None
        if routing is RoutingPolicy.KEY and message.key is not None:
            return up[_stable_hash(message.key) % len(up)]
        return up[self.sim.rng.randrange(len(up))]

    # ------------------------------------------------------------------
    # pumping

    def pump_all(self) -> None:
        """Schedule dispatch on every partition (cheap, idempotent)."""
        for partition in self._state:
            self.pump(partition)

    def pump(self, partition: int) -> None:
        if self._pump_scheduled.get(partition):
            return
        self._pump_scheduled[partition] = True
        self.sim.post(0.0, self._pumps[partition])

    def _do_pump(self, partition: int) -> None:
        self._pump_scheduled[partition] = False
        state = self._state[partition]
        log = self.topic.partitions[partition]
        budget = self.config.max_inflight_per_partition - len(state.inflight)
        if budget <= 0 or not self._up_members():
            return
        messages = log.read_from(state.fetch_offset, limit=budget)
        if not messages and state.fetch_offset < log.gc_floor:
            # everything between the cursor and the floor is gone
            self._account_gap(state, log, log.gc_floor)
            state.fetch_offset = log.gc_floor
            return
        if self.config.max_delivery_batch > 1:
            self._pump_batched(partition, state, log, messages)
        else:
            # hoisted: the dispatch target is a loop invariant —
            # resolve it once per pump, not per message
            dispatch = self._dispatch
            account_gap = self._account_gap
            for message in messages:
                offset = message.offset
                if offset > state.fetch_offset:
                    account_gap(state, log, offset)
                state.fetch_offset = offset + 1
                dispatch(partition, message, attempts=1)
        if messages:
            # more may be waiting beyond the budget
            state_after = self._state[partition]
            if state_after.fetch_offset < log.next_offset and len(
                state_after.inflight
            ) < self.config.max_inflight_per_partition:
                self.pump(partition)

    def _pump_batched(
        self, partition: int, state: _PartitionState, log, messages: List[Message]
    ) -> None:
        """Dispatch a pump's messages as same-member groups.

        Consecutive messages routed to the same member coalesce (up to
        ``max_delivery_batch``) into one delivery; a member change or a
        full group flushes.  Gap accounting is identical to the single
        path.  A message nobody can take falls back to ``_dispatch``,
        which leases it to nobody until the lease expires.
        """
        group: List[Message] = []
        group_member: Optional[str] = None
        for message in messages:
            if message.offset > state.fetch_offset:
                self._account_gap(state, log, message.offset)
            state.fetch_offset = message.offset + 1
            member = self._route(message)
            if member is None:
                self._dispatch_group(partition, group, group_member)
                group, group_member = [], None
                self._dispatch(partition, message, attempts=1)
                continue
            if group and (
                member != group_member
                or len(group) >= self.config.max_delivery_batch
            ):
                self._dispatch_group(partition, group, group_member)
                group = []
            group_member = member
            group.append(message)
        self._dispatch_group(partition, group, group_member)

    def _account_gap(self, state: _PartitionState, log, next_present: int) -> None:
        """Attribute skipped offsets to GC or compaction — silently."""
        gap = next_present - state.fetch_offset
        if gap <= 0:
            return
        below_floor = max(0, min(next_present, log.gc_floor) - state.fetch_offset)
        self.lost_to_gc += below_floor
        self.lost_to_compaction += gap - below_floor
        self.metrics.counter(f"pubsub.sub.{self.name}.lost").inc(gap)
        if self.tracer is not None:
            # identity-less: the messages are gone, so the TraceIndex
            # recovers (key, version) from its pubsub.append offset map
            self.tracer.record(
                hops.PUBSUB_GAP, "broker",
                subscription=self.name, topic=log.topic,
                partition=log.partition,
                from_offset=state.fetch_offset, to_offset=next_present,
                gc_floor=log.gc_floor,
            )

    def _dispatch(self, partition: int, message: Message, attempts: int) -> None:
        member = self._route(message)
        self._lease(self._state[partition], message, attempts)
        if member is None:
            return  # nobody up; the lease expires and redelivers
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
            lambda: consumer.deliver(
                message,
                ack=lambda: self.ack(partition, message.offset),
                nack=lambda: self.nack(partition, message.offset),
            ),
        )

    def _dispatch_group(
        self, partition: int, messages: List[Message], member: Optional[str]
    ) -> None:
        """Deliver a same-member group as one ``deliver_batch`` call.

        Per-message state is unchanged — each message gets its own
        in-flight entry and lease, so a crashed consumer's unacked batch
        redelivers message by message — but the group shares one
        delivery latency draw and one ack round-trip.
        """
        if not messages:
            return
        assert member is not None
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
            lambda: consumer.deliver_batch(
                batch,
                ack=lambda: self.ack_batch(partition, offsets),
                nack=lambda: self.nack_batch(partition, offsets),
            ),
        )

    # ------------------------------------------------------------------
    # leases: one watchdog timer for every in-flight delivery
    #
    # A lease's seq is drawn at dispatch (Simulation.next_seq), so its
    # expiry owns the (deadline, seq) slot a timer scheduled right there
    # would, and every other event's seq is what such a timer leaves.
    # Leases are taken at ``now`` with a constant ``ack_timeout``, hence
    # in (deadline, seq) order, and a redelivery or nack deletes before
    # it re-inserts: each partition's in-flight dict is in lease order,
    # and the oldest lease is the smallest seq among the partition
    # heads.  The watchdog is armed at exactly that lease's slot.

    def _lease(
        self, state: _PartitionState, message: Message, attempts: int
    ) -> None:
        sim = self.sim
        inflight = _Inflight(
            message, attempts,
            sim.clock._now + self.config.ack_timeout, sim.next_seq(),
        )
        state.inflight[message.offset] = inflight
        self._leases += 1
        if self._leases == 1:
            # the only lease, so the oldest; no watchdog can be pending
            self._arm(inflight)

    def _release(self, inflight: _Inflight) -> None:
        """A lease ended (ack, nack, expiry, seek): the caller already
        removed it from its partition's in-flight dict."""
        self._leases -= 1
        if not self._leases and self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def _arm(self, inflight: _Inflight) -> None:
        self._watched = inflight
        self._watchdog = self.sim.call_at_seq(
            inflight.deadline, inflight.seq, self._on_watchdog
        )

    def _on_watchdog(self) -> None:
        """The watched lease's deadline.  Still unacked: expire it, as
        its own timer would have.  Acked since: a no-op.  Either way
        re-arm at the oldest lease left — a pending watchdog always has
        a lease behind it, so ``run()`` ends on the same clock as with
        one timer per lease."""
        self._watchdog = None
        inflight = self._watched
        message = inflight.message
        if self._state[message.partition].inflight.get(message.offset) is inflight:
            self._expire(message.partition, inflight)
        if self._watchdog is None and self._leases:
            oldest = None
            for other in self._state.values():
                if other.inflight:
                    head = next(iter(other.inflight.values()))
                    if oldest is None or head.seq < oldest.seq:
                        oldest = head
            self._arm(oldest)

    def _expire(self, partition: int, inflight: _Inflight) -> None:
        """A lease ran out unacked: dead-letter or redeliver."""
        del self._state[partition].inflight[inflight.message.offset]
        self._release(inflight)
        if not self._maybe_dead_letter(partition, inflight):
            self._dispatch(partition, inflight.message, attempts=inflight.attempts + 1)

    def _maybe_dead_letter(self, partition: int, inflight: _Inflight) -> bool:
        """Route to the DLQ when attempts are exhausted; True if routed."""
        dl = self.config.dead_letter
        if dl is None or inflight.attempts < dl.max_attempts:
            return False
        self.dead_lettered += 1
        if self._dlq_append is not None:
            self._dlq_append(inflight.message)
        self.pump(partition)
        return True

    # ------------------------------------------------------------------
    # acks

    def ack(self, partition: int, offset: int) -> None:
        """Acknowledge one delivery; frees an in-flight slot."""
        if self._ack_one(partition, offset):
            self.pump(partition)

    def _ack_one(self, partition: int, offset: int) -> bool:
        state = self._state[partition]
        inflight = state.inflight.pop(offset, None)
        if inflight is None:
            return False  # late ack after redelivery/dead-letter: ignore
        self._release(inflight)
        state.acked += 1
        self.acked += 1
        if self.tracer is not None:
            message = inflight.message
            self.tracer.record(
                hops.PUBSUB_ACK, "broker",
                key=message.key, version=payload_version(message.payload),
                subscription=self.name, partition=partition, offset=offset,
            )
        return True

    def ack_batch(self, partition: int, offsets: List[int]) -> None:
        """Acknowledge a delivered group, then pump **once** — the batch
        counterpart of N ``ack`` calls each scheduling its own pump."""
        any_acked = False
        for offset in offsets:
            any_acked |= self._ack_one(partition, offset)
        if any_acked:
            self.pump(partition)

    def nack_batch(self, partition: int, offsets: List[int]) -> None:
        """Negative-ack a delivered group; each message redelivers (or
        dead-letters) individually through the single-message path."""
        for offset in offsets:
            self.nack(partition, offset)

    def nack(self, partition: int, offset: int) -> None:
        """Negative ack: redeliver promptly instead of waiting (or
        dead-letter once attempts are exhausted)."""
        state = self._state[partition]
        inflight = state.inflight.pop(offset, None)
        if inflight is None:
            return
        self._release(inflight)
        if self.tracer is not None:
            message = inflight.message
            self.tracer.record(
                hops.PUBSUB_NACK, "broker",
                key=message.key, version=payload_version(message.payload),
                subscription=self.name, partition=partition, offset=offset,
                attempts=inflight.attempts,
            )
        if self._maybe_dead_letter(partition, inflight):
            return
        self._dispatch(partition, inflight.message, attempts=inflight.attempts + 1)

    # ------------------------------------------------------------------
    # introspection

    def backlog(self, partition: Optional[int] = None) -> int:
        """Messages published but not yet acked by this subscription.

        This is what the paper means by a consumer's backlog: everything
        between the group's progress and the head of the topic,
        *including* messages GC already deleted (the group does not know
        they are gone).
        """
        partitions = [partition] if partition is not None else list(self._state)
        total = 0
        for p in partitions:
            state = self._state[p]
            log = self.topic.partitions[p]
            total += (log.next_offset - state.fetch_offset) + len(state.inflight)
        return total

    def inflight_count(self) -> int:
        return sum(len(s.inflight) for s in self._state.values())

    def seek(self, partition: int, offset: int) -> None:
        """Move the fetch cursor (replay support, §3.3).  In-flight
        deliveries are dropped; deliveries restart from ``offset``."""
        state = self._state[partition]
        dropped = list(state.inflight.values())
        state.inflight.clear()
        for inflight in dropped:
            self._release(inflight)
        state.fetch_offset = offset
        self.pump(partition)
