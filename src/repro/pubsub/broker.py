"""The broker: topics, publishing, subscriptions, background GC.

The broker is the control plane of the pubsub baseline: it owns topics,
fans published messages out to subscriptions, and runs the periodic
retention-GC and compaction sweeps whose silent deletions are the crux
of §3.1.  It also aggregates the hard-state accounting (bytes appended
to partition logs) used by the §4.4 efficiency experiment: every byte
written here is a *second* durable copy of data the producer store
already persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.pubsub.consumer import Consumer, ConsumerGroup, FreeConsumer
from repro.pubsub.dlq import DeadLetterPolicy
from repro.pubsub.errors import PubsubError, UnknownTopicError
from repro.pubsub.log import CompactionPolicy, RetentionPolicy
from repro.pubsub.message import Message
from repro.obs.trace import hops, payload_version
from repro.pubsub.subscription import RoutingPolicy, Subscription, SubscriptionConfig
from repro.pubsub.topic import Topic
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network


@dataclass
class BrokerConfig:
    """Broker-wide parameters."""

    gc_interval: float = 60.0
    compaction_interval: float = 300.0
    publish_latency: float = 0.0005

    def __post_init__(self) -> None:
        if self.gc_interval <= 0 or self.compaction_interval <= 0:
            raise ValueError("sweep intervals must be positive")
        if self.publish_latency < 0:
            raise ValueError("publish_latency must be >= 0")


class Broker:
    """In-process pubsub broker running on the simulation kernel."""

    def __init__(
        self,
        sim: Simulation,
        config: BrokerConfig = BrokerConfig(),
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        self._topics: Dict[str, Topic] = {}
        self._subscriptions: Dict[str, List[Subscription]] = {}
        self._sweeps_started = False
        self._channel: Optional[ReliableChannel] = None
        # prebound: one registry lookup at construction instead of one
        # dict probe per publish on the hot path
        self._published = self.metrics.counter("pubsub.published")

    # ------------------------------------------------------------------
    # network attachment (resilience layer)

    def attach_network(
        self,
        net: Network,
        endpoint: str = "broker",
        config: Optional[ChannelConfig] = None,
    ) -> ReliableChannel:
        """Expose the publish API as a network endpoint.

        Remote producers (:class:`RemotePublisher`) publish across the
        simulated network instead of calling :meth:`publish` directly —
        the hop where loss, partitions, and broker downtime bite.  The
        broker-side channel dedups retransmitted publishes (per-sender
        sequence numbers), so reliable producers get exactly-once
        appends even though the wire is at-least-once.
        """
        if self._channel is not None:
            raise PubsubError("broker already attached to a network")

        def handle(src: str, command: Any) -> None:
            records = command.get("records")
            if records is not None:
                self.publish_batch(command["topic"], records)
            else:
                self.publish(command["topic"], command["key"], command["payload"])

        self._channel = ReliableChannel(
            self.sim, net, endpoint, handler=handle,
            config=config, metrics=self.metrics,
        )
        return self._channel

    # ------------------------------------------------------------------
    # topics

    def create_topic(
        self,
        name: str,
        num_partitions: int = 1,
        retention: RetentionPolicy = RetentionPolicy(),
        compaction: Optional[CompactionPolicy] = None,
    ) -> Topic:
        """Create a topic; starts background sweeps on first topic."""
        if name in self._topics:
            raise PubsubError(f"topic {name!r} already exists")
        topic = Topic(
            name,
            num_partitions=num_partitions,
            retention=retention,
            compaction=compaction,
            clock=self.sim.now,
        )
        self._topics[name] = topic
        self._subscriptions[name] = []
        if not self._sweeps_started:
            self._sweeps_started = True
            self.sim.post(self.config.gc_interval, self._gc_sweep)
            self.sim.post(self.config.compaction_interval, self._compaction_sweep)
        return topic

    def topic(self, name: str) -> Topic:
        topic = self._topics.get(name)
        if topic is None:
            raise UnknownTopicError(name)
        return topic

    def topics(self) -> List[str]:
        return sorted(self._topics)

    # ------------------------------------------------------------------
    # publishing

    def publish(self, topic_name: str, key: Optional[str], payload: Any) -> Message:
        """Append to the topic and wake subscriptions after the publish
        latency.  Returns the stored message (offset assigned)."""
        topic = self.topic(topic_name)
        message = topic.append(key, payload)
        self._published.inc()
        if self.tracer is not None:
            self.tracer.record(
                hops.PUBSUB_APPEND, "broker",
                key=key, version=payload_version(payload),
                topic=topic_name, partition=message.partition,
                offset=message.offset,
            )

        def wake() -> None:
            for subscription in self._subscriptions[topic_name]:
                subscription.pump(message.partition)

        if self.config.publish_latency > 0:
            self.sim.post(self.config.publish_latency, wake)
        else:
            wake()
        return message

    def publish_batch(
        self, topic_name: str, records: List[Any]
    ) -> List[Message]:
        """Append a group of ``(key, payload)`` records atomically
        adjacent and wake subscriptions **once** per touched partition.

        The group-commit counterpart of :meth:`publish`: a transaction's
        records land as consecutive offsets (per partition) with a single
        wake instead of one publish latency + pump per record.
        """
        topic = self.topic(topic_name)
        messages: List[Message] = []
        for key, payload in records:
            message = topic.append(key, payload)
            messages.append(message)
            if self.tracer is not None:
                self.tracer.record(
                    hops.PUBSUB_APPEND, "broker",
                    key=key, version=payload_version(payload),
                    topic=topic_name, partition=message.partition,
                    offset=message.offset, n_events=len(records),
                )
        self._published.inc(len(messages))
        partitions = sorted({message.partition for message in messages})

        def wake() -> None:
            for subscription in self._subscriptions[topic_name]:
                for partition in partitions:
                    subscription.pump(partition)

        if self.config.publish_latency > 0:
            self.sim.post(self.config.publish_latency, wake)
        else:
            wake()
        return messages

    # ------------------------------------------------------------------
    # subscriptions

    def subscribe(
        self,
        topic_name: str,
        subscription_name: str,
        config: Optional[SubscriptionConfig] = None,
    ) -> Subscription:
        """Create a subscription on a topic."""
        topic = self.topic(topic_name)
        config = config or SubscriptionConfig()
        dlq_append = None
        if config.dead_letter is not None:
            dlq_topic_name = config.dead_letter.dlq_topic
            if dlq_topic_name not in self._topics:
                self.create_topic(dlq_topic_name)

            def dlq_append(message: Message, _name: str = dlq_topic_name) -> None:
                self.publish(_name, message.key, message.payload)
                self.metrics.counter("pubsub.dead_lettered").inc()

        subscription = Subscription(
            self.sim,
            subscription_name,
            topic,
            config=config,
            metrics=self.metrics,
            dlq_append=dlq_append,
            tracer=self.tracer,
        )
        self._subscriptions[topic_name].append(subscription)
        return subscription

    def consumer_group(
        self,
        topic_name: str,
        group_name: str,
        config: Optional[SubscriptionConfig] = None,
    ) -> ConsumerGroup:
        """Create a consumer-group subscription wrapper."""
        return ConsumerGroup(self.subscribe(topic_name, group_name, config))

    def free_consumer(
        self,
        topic_name: str,
        consumer: Consumer,
        config: Optional[SubscriptionConfig] = None,
    ) -> FreeConsumer:
        """Attach ``consumer`` as a free consumer: it gets every message
        of the topic on a dedicated subscription."""
        config = config or SubscriptionConfig(routing=RoutingPolicy.RANDOM)
        subscription = self.subscribe(topic_name, f"free:{consumer.name}", config)
        return FreeConsumer(subscription, consumer)

    def subscriptions(self, topic_name: str) -> List[Subscription]:
        return list(self._subscriptions.get(topic_name, ()))

    # ------------------------------------------------------------------
    # background sweeps

    def _gc_sweep(self) -> None:
        deleted = sum(topic.run_gc() for topic in self._topics.values())
        if deleted:
            self.metrics.counter("pubsub.gc.deleted").inc(deleted)
        self.sim.post(self.config.gc_interval, self._gc_sweep)

    def _compaction_sweep(self) -> None:
        deleted = sum(topic.run_compaction() for topic in self._topics.values())
        if deleted:
            self.metrics.counter("pubsub.compaction.deleted").inc(deleted)
        self.sim.post(self.config.compaction_interval, self._compaction_sweep)

    # ------------------------------------------------------------------
    # accounting

    @property
    def hard_state_bytes(self) -> int:
        """Durable bytes appended across all topics (§4.4 efficiency)."""
        return sum(topic.bytes_written for topic in self._topics.values())

    def total_backlog(self) -> int:
        """Sum of backlogs across all subscriptions of all topics."""
        return sum(
            subscription.backlog()
            for subs in self._subscriptions.values()
            for subscription in subs
        )


class RemotePublisher:
    """Producer-side handle that publishes to a broker over the network.

    The resilient counterpart of calling ``broker.publish`` directly:
    publish commands travel through a :class:`ReliableChannel` to the
    endpoint created by :meth:`Broker.attach_network`.  With a reliable
    channel config a publish survives loss, partition windows, and
    broker downtime (retransmitted until acked); with
    ``ChannelConfig(reliable=False)`` it is the paper's fire-and-forget
    baseline, and ``lost`` counts publishes the policy abandoned.
    """

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        name: str,
        broker_endpoint: str = "broker",
        config: Optional[ChannelConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.broker_endpoint = broker_endpoint
        self.tracer = tracer if tracer is not None else net.tracer
        self.channel = ReliableChannel(
            sim, net, name, config=config, metrics=metrics, tracer=tracer
        )
        self.published = 0
        self.delivered = 0
        self.lost = 0

    def publish(self, topic: str, key: Optional[str], payload: Any) -> None:
        """Ship one publish command across the network."""
        self._ship({"topic": topic, "key": key, "payload": payload})

    def publish_batch(self, topic: str, records: List[Any]) -> None:
        """Ship a group of ``(key, payload)`` records as ONE publish
        command — one channel frame, one ack, one retransmit unit.

        Every record's ``publish.send`` hop carries the frame's shared
        seq, so losing the frame attributes the loss to each record.
        """
        self._ship({"topic": topic, "records": list(records)})

    def _ship(self, command: Dict[str, Any]) -> None:
        """Send one publish command — single record or group — as one
        channel frame, counting and tracing every record it carries."""
        records = command.get("records")
        grouped = records is not None
        if not grouped:
            records = ((command["key"], command["payload"]),)
        self.published += len(records)

        # the callbacks re-read len(records): a captured count would be
        # one more closure cell per publish than needed, which is enough
        # to move repl-net-batched's GC phase (docs/performance.md)
        def delivered() -> None:
            self.delivered += len(records)
            if self.tracer is not None:
                self._trace(hops.PUBLISH_ACKED, records, seq=seq)

        def gaveup() -> None:
            self.lost += len(records)
            if self.tracer is not None:
                self._trace(hops.PUBLISH_GAVEUP, records, seq=seq)

        seq = self.channel.send(
            self.broker_endpoint, command,
            on_delivered=delivered, on_giveup=gaveup,
        )
        if self.tracer is not None:
            attrs = dict(
                channel=self.channel.name, dst=self.broker_endpoint,
                seq=seq, topic=command["topic"],
            )
            if grouped:
                attrs["n_events"] = len(records)
            self._trace(hops.PUBLISH_SEND, records, **attrs)

    def _trace(self, hop: str, records, **attrs: Any) -> None:
        for key, payload in records:
            self.tracer.record(
                hop, self.channel.name,
                key=key, version=payload_version(payload), **attrs,
            )

    # Failable protocol: a crashed publisher stops transmitting but
    # keeps its unacked frames; recovery re-kicks them.
    def crash(self) -> None:
        self.channel.crash()

    def recover(self) -> None:
        self.channel.recover()
