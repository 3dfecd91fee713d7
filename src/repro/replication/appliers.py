"""Pubsub-based replication appliers: the §3.2.1 strategy spectrum.

All appliers consume the CDC topic and apply to a
:class:`~repro.replication.target.ReplicaStore`; they differ exactly
along the axes the paper describes.  Per-record service time is
identical across appliers, so throughput differences come only from
available concurrency — the paper's trade: "the serial approach is not
scalable; to avoid a scale bottleneck we need to *concurrently* publish
and apply change events.  But we can't simply apply change events in an
arbitrary order."
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Sequence, Tuple

from repro._types import Mutation
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.replication.target import CursorCorruption, ReplicaStore
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.sim.kernel import Simulation
from repro.sim.network import Network
from repro.sim.wire import WireError

#: one apply: a ReplicaStore apply-method name and its arguments
ApplyOp = Tuple[str, Tuple[Any, ...]]

#: the apply methods a replica endpoint accepts off the wire, with the
#: argument count each takes; ``apply_many`` is the group form, whose one
#: argument is a sequence of the other three
_OP_ARITY = {"apply_naive": 3, "apply_versioned": 3, "apply_txn": 2}


def _mutation_of(message: Message) -> Mutation:
    payload = message.payload
    if payload["op"] == "delete":
        return Mutation.delete()
    return Mutation.put(payload["value"])


class _ApplierBase:
    """Shared wiring: a subscription plus worker consumers.

    A subclass is three class attributes — consumer-group name, routing
    policy and the :class:`ReplicaStore` apply method each record goes
    through.  PARTITION routing means one worker per partition (the
    affinity is what preserves per-key order); otherwise ``workers``
    consumers share the topic.

    With ``network`` set, the replica store lives across the simulated
    network (the remote data center of §3.1/§3.2.1): each apply is
    shipped to a replica endpoint through a
    :class:`~repro.resilience.channel.ReliableChannel` instead of being
    a direct method call.  The channel config decides whether a dropped
    apply is retransmitted (reliable) or silently lost (the
    fire-and-forget baseline) — and whether applies can reorder in
    flight (``ordered``), which is exactly the redelivery/reordering
    regime the version-checked appliers were built to survive.  With
    ``delivery_batch > 1`` a delivered group is applied by one handler
    invocation: one target loop locally, one wire frame remotely.
    """

    group_name: str
    routing: RoutingPolicy
    apply_method: str

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str,
        target: ReplicaStore,
        *,
        workers: Optional[int] = None,
        service_time: float = 0.001,
        network: Optional[Network] = None,
        resilience: Optional[ChannelConfig] = None,
        delivery_batch: int = 1,
    ) -> None:
        if self.routing is RoutingPolicy.PARTITION:
            partitions = broker.topic(topic).num_partitions
            if workers not in (None, partitions):
                raise ValueError(
                    f"{type(self).__name__} runs one worker per partition"
                )
            workers = partitions
        elif workers is None:
            workers = 4
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sim = sim
        self.target = target
        self.records_seen = 0
        #: applies refused by the replica because a cursor was provably
        #: corrupted (typed CursorCorruption); the record is consumed
        #: but never applied — the reconciliation plane's repair signal
        self.cursor_faults = 0
        self._tx: Optional[ReliableChannel] = None
        if network is not None:
            self._endpoint_name = f"{self.group_name}-replica"
            # the network's endpoint table holds the receiving channel
            ReliableChannel(
                sim, network, self._endpoint_name,
                handler=self._apply_remote, config=resilience,
            )
            self._tx = ReliableChannel(
                sim, network, f"{self.group_name}-tx", config=resilience
            )
        self.group = broker.consumer_group(
            topic,
            self.group_name,
            SubscriptionConfig(
                routing=self.routing,
                ack_timeout=5.0,
                max_delivery_batch=delivery_batch,
            ),
        )
        self.consumers: List[Consumer] = []
        for idx in range(workers):
            consumer = Consumer(
                sim,
                f"{self.group_name}-w{idx}",
                handler=self._handle,
                batch_handler=self._handle_batch,
                service_time=service_time,
            )
            self.consumers.append(consumer)
            self.group.join(consumer)

    def _op_for(self, message: Message) -> ApplyOp:
        return (
            self.apply_method,
            (message.key, _mutation_of(message), message.payload["version"]),
        )

    def _handle(self, message: Message) -> bool:
        self.records_seen += 1
        self._ship(*self._op_for(message))
        return True

    def _handle_batch(self, messages: List[Message]) -> bool:
        """Group-apply a batched delivery in ONE handler invocation:
        one apply loop locally, or one ``apply_many`` wire frame
        remotely, instead of N."""
        ops = [self._op_for(message) for message in messages]
        self.records_seen += len(ops)
        if self._tx is None:
            self._apply_ops(ops)
        else:
            self._tx.send(
                self._endpoint_name, {"method": "apply_many", "args": (ops,)}
            )
        return True

    def _ship(self, method: str, args: Tuple[Any, ...]) -> None:
        """Apply to the target: direct call, or shipped over the network."""
        if self._tx is None:
            self._apply_ops(((method, args),))
        else:
            self._tx.send(self._endpoint_name, {"method": method, "args": args})

    def _apply_ops(self, ops: Sequence[ApplyOp]) -> None:
        """Run apply ops against the target in order, each isolated: a
        poisoned cursor refuses its own op and nothing else, so the rest
        of a group still applies, exactly once."""
        target = self.target
        for method, args in ops:
            try:
                getattr(target, method)(*args)
            except CursorCorruption:
                self.cursor_faults += 1

    def _apply_remote(self, src: str, op: Any) -> None:
        """Replica endpoint: check what the channel delivered against the
        allow-list before any of it is applied."""
        try:
            method, args = op["method"], op["args"]
            ops = args[0] if method == "apply_many" else ((method, args),)
            for name, op_args in ops:
                if _OP_ARITY[name] != len(op_args):
                    raise ValueError(name)
        except (TypeError, KeyError, IndexError, ValueError) as exc:
            raise WireError(
                f"replica endpoint {self._endpoint_name!r}: malformed apply "
                f"op from {src!r}: {op!r}"
            ) from exc
        self._apply_ops(ops)

    def backlog(self) -> int:
        return self.group.backlog()


class SerialTxnApplier(_ApplierBase):
    """One worker; regroups records into transactions and applies each
    atomically, in order.  Point-in-time consistent, unscalable.

    Requires the CDC topic to have a single partition (global order)."""

    group_name = "serial-applier"
    routing = RoutingPolicy.PARTITION
    apply_method = "apply_txn"
    #: txn regrouping is stateful, so there is no group form: a batched
    #: delivery runs ``_handle`` over the group in order (Consumer's
    #: default when no batch handler is given)
    _handle_batch = None

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str,
        target: ReplicaStore,
        **kwargs: Any,
    ) -> None:
        if broker.topic(topic).num_partitions != 1:
            raise ValueError("SerialTxnApplier requires a 1-partition topic")
        if kwargs.get("network") is not None:
            # serial apply is only point-in-time consistent if the wire
            # preserves order, so the channel must be reliable+ordered
            kwargs["resilience"] = dataclasses.replace(
                kwargs.get("resilience") or ChannelConfig(),
                reliable=True, ordered=True,
            )
        super().__init__(sim, broker, topic, target, **kwargs)
        self._pending: List[Tuple[str, Mutation]] = []
        self.txns_applied = 0

    def _handle(self, message: Message) -> bool:
        payload = message.payload
        self.records_seen += 1
        self._pending.append((message.key, _mutation_of(message)))
        if payload["txn_index"] == payload["txn_size"] - 1:
            self._ship(self.apply_method, (self._pending, payload["version"]))
            self._pending = []
            self.txns_applied += 1
        return True


class ConcurrentApplier(_ApplierBase):
    """N workers, arbitrary routing, naive last-arrival-wins apply.

    Scales, but reordered updates overwrite with stale state and
    reordered deletes resurrect rows (eventual-consistency violations)."""

    group_name = "concurrent-applier"
    routing = RoutingPolicy.RANDOM
    apply_method = "apply_naive"


class VersionCheckedApplier(_ApplierBase):
    """N workers with version checks and tombstones (§3.2.1's repair).

    Eventually consistent, but snapshot anomalies remain: transactions
    are torn across workers, so the target externalizes mixtures of
    transactions that never coexisted at the source."""

    group_name = "versioned-applier"
    routing = RoutingPolicy.RANDOM
    apply_method = "apply_versioned"


class PartitionSerialApplier(_ApplierBase):
    """One worker per partition, keyed partitioning (§3.2.1 strategy 3).

    Per-key order is preserved (no version checks needed for EC), but
    "transactions affecting multiple partitions are not atomically
    applied and the global transaction order of the source may be
    violated" — snapshot anomalies remain.  Per-key order comes from
    keyed partitioning + partition affinity, so a versioned apply never
    skips; the version check stays as belt and braces under redelivery."""

    group_name = "partition-serial-applier"
    routing = RoutingPolicy.PARTITION
    apply_method = "apply_versioned"
