"""Pubsub cache invalidation — including the Figure 2 race.

The pipeline: producer store --CDC--> invalidation topic --consumer
group--> cache nodes.  The consumer group's routing is pubsub's own
(key-hash or random over members) and knows nothing about the
auto-sharder's range assignment; §3.1 notes this mismatch is inherent
("affinity mechanisms based on the message key or pubsub partition do
not support independent, dynamic sharding").

Modes (experiment E3's rows):

- ``NAIVE`` — whichever member receives an invalidation applies it to
  its own cache and acks.  With dynamic sharding the receiving member
  is usually not the owner: the owner's entry stays stale *forever*.
- ``OWNER_ACK`` — the member acks only if it *believes* it owns the
  key, else nacks (random rerouting retries until an owner-believer
  takes it).  This is the charitable variant: it fails only in the
  Figure 2 window, when the old owner still believes it owns the key,
  acks the invalidation, and the new owner — which fetched just before
  the update — is never told.
- ``LEASE`` — §3.2.2's mitigation: only the current lease holder may
  ack.  Misses become rare, but handoffs leave ownerless windows in
  which reads cannot be served authoritatively (availability cost).

``FREE`` fanout (every node consumes the whole feed) needs no routing
and no mode: :class:`FreeInvalidationPipeline`; each node then
processes every invalidation in the system (the scalability cost
§3.2.2 notes).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.cache.node import CacheNode, CacheNodeConfig
from repro.cdc.publisher import CdcPublisher
from repro.pubsub.broker import Broker, RemotePublisher
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.sharding.autosharder import AutoSharder
from repro.sharding.leases import LeaseManager
from repro.sim.kernel import Simulation
from repro.sim.network import Network
from repro.storage.kv import MVCCStore


class InvalidationMode(enum.Enum):
    NAIVE = "naive"
    OWNER_ACK = "owner_ack"
    LEASE = "lease"


class PubsubCacheNode(CacheNode):
    """Cache node that processes invalidation messages from pubsub."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        store: MVCCStore,
        mode: InvalidationMode,
        leases: Optional[LeaseManager] = None,
        config: Optional[CacheNodeConfig] = None,
        tracer=None,
    ) -> None:
        super().__init__(sim, name, store, config, tracer=tracer)
        if mode is InvalidationMode.LEASE and leases is None:
            raise ValueError("LEASE mode requires a LeaseManager")
        self.mode = mode
        self.leases = leases
        self.invalidation_messages_seen = 0
        self.invalidations_acked = 0

    def serve(self, key):
        """In LEASE mode a node may serve only while it holds the lease
        — the §3.2.2 availability cost: during handoffs there is no
        holder, so reads go unserved."""
        if self.mode is InvalidationMode.LEASE:
            assert self.leases is not None
            holder = self.leases.holder(key)
            if holder != self.name:
                if holder is None and self.owns(key):
                    self.leases.try_acquire(self.name, key)
                    if self.leases.holder(key) == self.name:
                        return super().serve(key)
                self.not_owner += 1
                return ("unavailable", None)
        return super().serve(key)

    def handle_invalidation_message(self, message: Message) -> bool:
        """Consumer handler; True = ack, False = nack."""
        self.invalidation_messages_seen += 1
        key = message.key
        version = message.payload["version"]
        if self.mode is InvalidationMode.NAIVE:
            self.apply_invalidation(key, version)
            self.invalidations_acked += 1
            return True
        if self.mode is InvalidationMode.OWNER_ACK:
            if self.owns(key):
                self.apply_invalidation(key, version)
                self.invalidations_acked += 1
                return True
            return False
        # LEASE: only the current holder may ack
        assert self.leases is not None
        holder = self.leases.holder(key)
        if holder == self.name:
            self.apply_invalidation(key, version)
            self.invalidations_acked += 1
            return True
        if holder is None and self.owns(key):
            # try to take the lease we are entitled to
            if self.leases.try_acquire(self.name, key) is not None:
                self.apply_invalidation(key, version)
                self.invalidations_acked += 1
                return True
        return False


class PubsubInvalidationPipeline:
    """Wires store -> CDC -> topic -> consumer group of cache nodes."""

    def __init__(
        self,
        sim: Simulation,
        store: MVCCStore,
        broker: Broker,
        sharder: AutoSharder,
        nodes: List[PubsubCacheNode],
        topic: str = "invalidations",
        tracer=None,
    ) -> None:
        self.sim = sim
        self.store = store
        self.broker = broker
        self.nodes = nodes
        self.topic = topic
        # OWNER_ACK/LEASE rely on rerouting after a nack, so they need
        # RANDOM; NAIVE uses pubsub's own key affinity.
        routing = (
            RoutingPolicy.KEY
            if nodes and nodes[0].mode is InvalidationMode.NAIVE
            else RoutingPolicy.RANDOM
        )
        broker.create_topic(topic, num_partitions=8)
        # the store history's subscription holds the publisher
        CdcPublisher(sim, store.history, broker, topic, tracer=tracer)
        self.group = broker.consumer_group(
            topic,
            f"{topic}-caches",
            SubscriptionConfig(routing=routing, ack_timeout=0.25),
        )
        self._consumers: Dict[str, Consumer] = {}
        for node in nodes:
            self._attach(node)
        for node in nodes:
            sharder.subscribe(node.on_assignment)
        if any(node.mode is InvalidationMode.LEASE for node in nodes):
            leases = nodes[0].leases
            assert leases is not None
            sharder.subscribe(leases.on_assignment, immediate=True)
            self._start_lease_renewal(sharder, leases)

    def _attach(self, node: PubsubCacheNode) -> None:
        consumer = Consumer(
            self.sim,
            node.name,
            handler=node.handle_invalidation_message,
            service_time=0.0005,
        )
        self._consumers[node.name] = consumer
        self.group.join(consumer)

    def _start_lease_renewal(self, sharder: AutoSharder, leases: LeaseManager) -> None:
        interval = leases.lease_duration / 2.0

        def renew() -> None:
            assignment = sharder.assignment
            for node in self.nodes:
                for key_range in node.owned_ranges:
                    leases.try_acquire(node.name, key_range.low)
            self.sim.call_after(interval, renew)
            del assignment

        self.sim.call_after(interval / 2.0, renew)


class FreeInvalidationPipeline:
    """Every node consumes the entire invalidation feed.

    Correct under dynamic sharding (each node invalidates its own
    cache), but per-node message load equals the full update rate —
    "an approach that does not scale as update rates increase" (§3.2.2).
    """

    def __init__(
        self,
        sim: Simulation,
        store: MVCCStore,
        broker: Broker,
        sharder: AutoSharder,
        nodes: List[PubsubCacheNode],
        topic: str = "invalidations",
        network: Optional[Network] = None,
        resilience: Optional[ChannelConfig] = None,
        tracer=None,
        delivery_batch: int = 1,
        batch_overhead: float = 0.0,
        group_commit: bool = False,
        service_time: float = 0.0005,
    ) -> None:
        self.sim = sim
        self.nodes = nodes
        broker.create_topic(topic, num_partitions=8)
        self.remote_publisher: Optional[RemotePublisher] = None
        #: the broker's end of the network hop (None without a network)
        self.broker_channel: Optional[ReliableChannel] = None
        if network is not None:
            # the §3.1 cross-DC hop: the broker gets a network endpoint
            # and CDC publishes through a RemotePublisher instead of a
            # direct call, so loss and partitions silently eat
            # invalidations unless the channel config retries
            self.broker_channel = broker.attach_network(
                network, endpoint=f"{topic}-broker", config=resilience
            )
            self.remote_publisher = RemotePublisher(
                sim, network, f"{topic}-cdc", broker_endpoint=f"{topic}-broker",
                config=resilience, metrics=broker.metrics, tracer=tracer,
            )
            # the store history's subscription holds the publisher
            CdcPublisher(
                sim, store.history, broker, topic,
                publish_fn=self.remote_publisher.publish, tracer=tracer,
                group_commit=group_commit,
                publish_batch_fn=self.remote_publisher.publish_batch,
            )
        else:
            CdcPublisher(
                sim, store.history, broker, topic, tracer=tracer,
                group_commit=group_commit,
            )
        self._consumers: List[Consumer] = []
        for node in nodes:
            def handler(message: Message, node: PubsubCacheNode = node) -> bool:
                node.invalidation_messages_seen += 1
                node.apply_invalidation(message.key, message.payload["version"])
                return True

            consumer = Consumer(
                sim, f"free-{node.name}", handler=handler,
                service_time=service_time, batch_overhead=batch_overhead,
            )
            self._consumers.append(consumer)
            broker.free_consumer(
                topic,
                consumer,
                SubscriptionConfig(
                    routing=RoutingPolicy.RANDOM,
                    max_delivery_batch=delivery_batch,
                ),
            )
            sharder.subscribe(node.on_assignment)
