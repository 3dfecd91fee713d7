"""Edge frontends: session termination for both delivery pipelines.

A frontend is the fan-out node the paper's architecture needs between
the source tier and millions of clients.  Two implementations, one per
pipeline, both hosting :class:`~repro.edge.session.ClientSession`s:

:class:`WatchEdgeFrontend`
    Wraps a :class:`~repro.core.relay.WatchRelay`: the frontend holds a
    materialized replica of the keyspace and serves *both* reconnect
    paths locally — delta catch-up from the relay's fan-out buffer and
    snapshot re-serves from the relay's versioned state — so a
    reconnect storm costs the source tier nothing beyond the one
    standing relay stream.  When ``net`` is given, that stream crosses
    a lossy link via ``ReliableFanoutLink`` (ordered ReliableChannel +
    breaker), the resilience hop the tentpole requires.

:class:`PubsubEdgeFrontend`
    Subscribes a free consumer to the topic (every message, once per
    frontend) and routes messages to sessions by key range.  There is
    no snapshot to re-serve — pubsub's contract is every-message — so
    reconnect catch-up *replays the broker's partition logs* from the
    client's offset cursor: a storm multiplies load on the source-side
    log, which is exactly the §4.4 amplification E11 measures.

The reconnect decision rule lives here: a client whose cursor is within
``catchup_threshold`` of the frontend head gets delta catch-up; one
further behind (or below the retained floor) gets a snapshot re-serve
(watch) or a longer log replay (pubsub).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro._types import KeyRange, Version
from repro.core.api import WatchCallback
from repro.core.linked_cache import SnapshotUnavailable
from repro.core.relay import (
    ReliableFanoutEndpoint,
    ReliableFanoutLink,
    WatchRelay,
)
from repro.core.stream import WatcherConfig
from repro.core.watch_system import WatchSystem
from repro.edge.session import (
    ClientSession,
    SessionConfig,
    SlowConsumerPolicy,
    Update,
)
from repro.edge.session_table import SessionTable
from repro.obs.trace import TraceSampler, hops, payload_version
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.sim.kernel import Simulation
from repro.sim.network import Network

#: the relay->session pipe: instant, unbounded — backpressure is the
#: session queue's job, never the relay-side watcher queue's
_FEED_CONFIG = WatcherConfig(
    delivery_latency=0.0, service_time=0.0, max_backlog=1_000_000_000
)

#: edge-served snapshot latency (local state, no source round-trip)
SNAPSHOT_LATENCY = 0.005
#: retry delay while the relay is mid-resync (SnapshotUnavailable)
SNAPSHOT_RETRY = 0.05
#: pubsub catch-up: log messages replayed per batch, and the pause
#: between batches (models a fetch round-trip to the broker log)
REPLAY_BATCH = 64
REPLAY_LATENCY = 0.002


@dataclass
class EdgeFrontendConfig:
    """Shared frontend parameters (both pipelines)."""

    session: SessionConfig = field(default_factory=SessionConfig)
    #: Reconnect decision rule: delta catch-up when the client's cursor
    #: is within this many versions (watch) or messages (pubsub) of the
    #: frontend head; otherwise snapshot re-serve / full log replay.
    catchup_threshold: int = 500
    #: Shared-drain tick (seconds).  When set, sessions join the
    #: frontend :class:`~repro.edge.session_table.SessionTable`'s
    #: intrusive ready list and ONE pump event per tick delivers one
    #: item for every ready session — O(active sessions) kernel events
    #: instead of one per session per item, the E14 scaling mode.  The
    #: tick replaces ``session.delivery_latency`` for drain pacing.
    #: None (default) keeps per-session drain events, byte-identical
    #: to the pre-table schedule.
    drain_interval: Optional[float] = None
    #: Trace 1-in-N connected sessions (deterministic, by connect
    #: order); sampled-out sessions run with ``tracer=None`` so a
    #: million-session run doesn't spend its memory on trace events.
    #: 1 (default) traces everything.
    trace_sample: int = 1
    #: Whether each session's relay feed subscribes to progress events.
    #: Feeds discard them (sessions deliver values, not knowledge
    #: windows), but their delivery still costs one queued event per
    #: session per progress tick — O(sessions) work that E14 turns off
    #: (the frontend tracks knowledge centrally via the relay).  True
    #: (default) keeps the subscribed schedule byte-identical.
    feed_progress: bool = True
    #: Mass-snapshot storm knob: when set, a *reconnecting* client
    #: (``client.connects > 1``) is treated as at least this many
    #: versions (watch) / messages-per-partition (pubsub) behind the
    #: frontend head, however fresh its durable cursor actually is —
    #: modeling long-offline devices whose cursors sit below the GC /
    #: compaction floor.  With an age above ``catchup_threshold`` the
    #: watch path is forced onto the snapshot re-serve (range scan) and
    #: the pubsub path onto a full log replay that crosses retention
    #: holes (``replay_gaps``).  None (default) trusts the real cursor —
    #: byte-identical to the pre-knob schedule.
    reconnect_cursor_age: Optional[int] = None

    def __post_init__(self) -> None:
        if self.catchup_threshold < 0:
            raise ValueError("catchup_threshold must be >= 0")
        if self.drain_interval is not None and self.drain_interval < 0:
            raise ValueError("drain_interval must be >= 0")
        if self.reconnect_cursor_age is not None and self.reconnect_cursor_age < 0:
            raise ValueError("reconnect_cursor_age must be >= 0")


class _SessionFeed(WatchCallback):
    """Adapter: one relay watch feeding one client session."""

    __slots__ = ("frontend", "session")

    def __init__(self, frontend: "WatchEdgeFrontend", session: ClientSession):
        self.frontend = frontend
        self.session = session

    def on_event(self, event) -> None:
        mutation = event.mutation
        self.session.offer(Update(
            key=event.key,
            version=event.version,
            value=mutation.value,
            is_delete=mutation.is_delete,
        ))

    def on_progress(self, event) -> None:
        pass  # sessions deliver values, not knowledge windows

    def on_resync(self) -> None:
        # the relay lost history below this session's position (its own
        # upstream resync raised the fan-out floor); re-serve a snapshot
        self.frontend._feed_resynced(self.session)


class WatchEdgeFrontend:
    """Watch-pipeline frontend: relay replica + client sessions."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        upstream,  # anything with watch_range (WatchSystem/StoreWatch/relay)
        snapshot_fn,
        net: Optional[Network] = None,
        channel_config: Optional[ChannelConfig] = None,
        config: Optional[EdgeFrontendConfig] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or EdgeFrontendConfig()
        self.tracer = tracer
        self.up = True
        self.sessions: Dict[str, ClientSession] = {}
        #: one bound method, shared by every session this owner opens
        self._on_session_closed = self._session_closed
        self.table = SessionTable(
            sim,
            drain_interval=self.config.drain_interval,
            sampler=TraceSampler(self.config.trace_sample),
        )
        self.connects = 0
        self.catchups_served = 0
        self.snapshots_served = 0
        self.feed_resyncs = 0
        #: snapshot re-serves answered from the per-range cache without
        #: re-running the range scan (mass-snapshot storms are O(distinct
        #: ranges) scans + O(sessions) copies, not O(sessions) scans)
        self.snapshot_cache_hits = 0
        #: (range.low, range.high) -> (version, items); one entry per
        #: distinct session key range, invalidated by version mismatch
        self._snapshot_cache: Dict[tuple, tuple] = {}
        #: source-tier load: snapshots the relay itself pulled from the
        #: store (edge-served client snapshots never touch this)
        self.source_snapshots = 0

        def counted_snapshot_fn(key_range):
            self.source_snapshots += 1
            return snapshot_fn(key_range)

        if net is not None:
            # source stream crosses the wire: upstream -> reliable link
            # -> endpoint -> local ingest watch system -> relay
            self._ingest = WatchSystem(sim, name=f"{name}-ingest", tracer=tracer)
            self.endpoint = ReliableFanoutEndpoint(
                sim, net, f"{name}-ep", self._ingest,
                config=channel_config, tracer=tracer,
            )
            self.link = ReliableFanoutLink(
                sim, upstream, net, f"{name}-uplink", f"{name}-ep",
                config=channel_config, tracer=tracer,
            )
            relay_upstream = self._ingest
        else:
            self._ingest = None
            self.endpoint = None
            self.link = None
            relay_upstream = upstream
        self.relay = WatchRelay(
            sim, relay_upstream, counted_snapshot_fn, KeyRange.all(),
            name=f"{name}-relay", tracer=tracer,
        )
        self.relay.start()

    # ------------------------------------------------------------------
    # session lifecycle

    def head_version(self) -> Version:
        """Newest version this frontend can serve."""
        return self.relay.knowledge.max_known_version()

    def connect(self, client) -> ClientSession:
        """Terminate a client session here; choose the catch-up path."""
        if not self.up:
            raise RuntimeError(f"frontend {self.name} is down")
        self.connects += 1
        tracer = self.tracer if self.table.sampler.keep(self.connects - 1) else None
        session = ClientSession(
            self.sim, f"{self.name}/{client.name}", client,
            key_range=client.key_range, config=self.config.session,
            on_closed=self._on_session_closed, tracer=tracer,
            table=self.table,
        )
        self.sessions[client.name] = session
        cursor = client.cursor
        head = self.head_version()
        age = self.config.reconnect_cursor_age
        if age is not None and client.connects > 1:
            cursor = min(cursor, max(0, head - age))
        staleness = head - cursor if head > cursor else 0
        client.staleness_at_connect.append(staleness)
        threshold = self.config.catchup_threshold
        if self.config.session.policy is SlowConsumerPolicy.DISCONNECT:
            # a delta catch-up larger than the queue bound is guaranteed
            # to overflow a disconnect-policy session before a single
            # delivery runs — the reconnect cycle would never progress
            threshold = min(threshold, self.config.session.max_queue)
        delta = staleness <= threshold
        if session.tracer is not None:
            session.tracer.record(
                hops.EDGE_CONNECT, self.name,
                session=session.name, client=client.name,
                mode="delta" if delta else "snapshot", staleness=staleness,
            )
        if delta:
            self.catchups_served += 1
            self._attach_feed(session, cursor)
        else:
            self._schedule_snapshot(session)
        return session

    def _new_feed(self, session: ClientSession, from_version: Version):
        """The relay callback feeding ``session`` from its catch-up
        version on; a subclass may wrap it in a delivery stage."""
        return _SessionFeed(self, session)

    def _attach_feed(self, session: ClientSession, from_version: Version) -> None:
        feed = self._new_feed(session, from_version)
        # the feed inherits the session's *sampled* tracer so an
        # unsampled session's relay feed records no per-delivery hops
        handle = self.relay.watch_range(
            session.key_range, from_version, feed, config=_FEED_CONFIG,
            tracer=session.tracer, progress=self.config.feed_progress,
        )
        if session.active:
            session._feed_handle = handle
        elif handle.active:
            # the catch-up replay itself closed the session (overflow)
            handle.cancel()

    def _feed_resynced(self, session: ClientSession) -> None:
        if not session.active or not self.up:
            return
        self.feed_resyncs += 1
        session._feed_handle = None
        self._schedule_snapshot(session)

    def _schedule_snapshot(self, session: ClientSession) -> None:
        self.sim.call_after(
            SNAPSHOT_LATENCY, lambda: self._serve_snapshot(session)
        )

    def _serve_snapshot(self, session: ClientSession) -> None:
        if not session.active or not self.up:
            return
        try:
            version = self.relay.snapshot_version(session.key_range)
        except SnapshotUnavailable:
            # relay mid-(re)sync; back off and retry from edge state
            self.sim.call_after(
                SNAPSHOT_RETRY, lambda: self._serve_snapshot(session)
            )
            return
        cache_key = (session.key_range.low, session.key_range.high)
        cached = self._snapshot_cache.get(cache_key)
        if cached is not None and cached[0] == version:
            # same range at the same version: the relay state hasn't
            # moved, so the scan would rebuild an identical dict.
            # ``offer_snapshot`` copies, so sharing the items is safe.
            items = cached[1]
            self.snapshot_cache_hits += 1
        else:
            items = self.relay.data.items_at(session.key_range, version)
            self._snapshot_cache[cache_key] = (version, items)
        self.snapshots_served += 1
        if session.tracer is not None:
            session.tracer.record(
                hops.EDGE_SNAPSHOT, self.name,
                session=session.name, snapshot_version=version,
                size=len(items),
            )
        session.offer_snapshot(version, items)
        self._attach_feed(session, version)

    def _session_closed(self, session: ClientSession, reason: str) -> None:
        if self.sessions.get(session.client.name) is session:
            del self.sessions[session.client.name]
        handle = session._feed_handle
        session._feed_handle = None
        if handle is not None and handle.active:
            handle.cancel()

    # ------------------------------------------------------------------
    # Failable protocol

    def crash(self) -> None:
        """Fail the frontend: all sessions drop, the replica goes cold."""
        if not self.up:
            return
        self.up = False
        for session in list(self.sessions.values()):
            session.close("frontend-down")
        if self.link is not None:
            self.link.crash()
            self.endpoint.crash()
        self.relay.suspend()

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        if self.link is not None:
            self.link.recover()
            self.endpoint.recover()
        self.relay.resume()


class PubsubEdgeFrontend:
    """Pubsub-pipeline frontend: free consumer + log-replay catch-up."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        broker: Broker,
        topic: str,
        config: Optional[EdgeFrontendConfig] = None,
        net: Optional[Network] = None,
        tracer=None,
    ) -> None:
        if config is None:
            config = EdgeFrontendConfig(
                session=SessionConfig(policy=SlowConsumerPolicy.DROP)
            )
        if config.session.policy is SlowConsumerPolicy.COALESCE:
            raise ValueError(
                "coalesce is watch-only by construction: the pubsub "
                "contract is every-message delivery (§4.4)"
            )
        self.sim = sim
        self.name = name
        self.config = config
        self.tracer = tracer
        self.up = True
        self.topic = broker.topic(topic)
        self.sessions: Dict[str, ClientSession] = {}
        #: one bound method, shared by every session this owner opens
        self._on_session_closed = self._session_closed
        self.table = SessionTable(
            sim,
            drain_interval=config.drain_interval,
            sampler=TraceSampler(config.trace_sample),
        )
        self.connects = 0
        self.catchups_served = 0
        self.events_ingested = 0
        #: source-tier load: messages re-read from the broker's
        #: partition logs for reconnect catch-up
        self.replayed = 0
        #: offsets silently missing during replay (GC'd / compacted)
        self.replay_gaps = 0
        self._consumer = Consumer(sim, f"{name}-consumer", handler=self._on_message)
        broker.free_consumer(topic, self._consumer)
        if net is not None:
            # broker-side relay of the free-consumer stream to the
            # frontend across the wire; ordered so per-partition offset
            # dedupe sees monotone arrivals
            channel_config = ChannelConfig(ordered=True)
            self._uplink = ReliableChannel(
                sim, net, f"{name}-uplink", config=channel_config,
                tracer=tracer,
            )
            self._edge_channel = ReliableChannel(
                sim, net, f"{name}-ep",
                handler=lambda src, message: self._ingest(message),
                config=channel_config, tracer=tracer,
            )
        else:
            self._uplink = None
            self._edge_channel = None

    # ------------------------------------------------------------------
    # live path: broker -> free consumer -> (wire) -> sessions

    def _on_message(self, message: Message):
        if self._uplink is not None:
            self._uplink.send(f"{self.name}-ep", message)
        else:
            self._ingest(message)
        return True

    def _ingest(self, message: Message) -> None:
        if not self.up:
            return
        self.events_ingested += 1
        for session in list(self.sessions.values()):
            if not session.live:
                continue  # still replaying the log; it will get there
            if message.key is not None and not session.key_range.contains(message.key):
                continue
            expected = session.expected_offsets.get(message.partition, 0)
            if message.offset < expected:
                continue  # already served by replay (or a dup)
            session.expected_offsets[message.partition] = message.offset + 1
            session.offer(self._update_from(message))

    @staticmethod
    def _update_from(message: Message) -> Update:
        payload = message.payload
        version = payload_version(payload)
        value = payload.get("value") if isinstance(payload, dict) else payload
        return Update(
            key=message.key,
            version=version if version is not None else 0,
            value=value,
            partition=message.partition,
            offset=message.offset,
        )

    # ------------------------------------------------------------------
    # session lifecycle

    def connect(self, client) -> ClientSession:
        """Terminate a session; replay the log from the client's cursor."""
        if not self.up:
            raise RuntimeError(f"frontend {self.name} is down")
        self.connects += 1
        tracer = self.tracer if self.table.sampler.keep(self.connects - 1) else None
        session = ClientSession(
            self.sim, f"{self.name}/{client.name}", client,
            key_range=client.key_range, config=self.config.session,
            on_closed=self._on_session_closed, tracer=tracer,
            table=self.table,
        )
        offsets = dict(client.offsets)
        for log in self.topic.partitions:
            offsets.setdefault(log.partition, 0)
        age = self.config.reconnect_cursor_age
        if age is not None and client.connects > 1:
            # storm knob: the reconnecting cursor is at least ``age``
            # messages behind each partition head, so replay must cross
            # whatever retention GC / compaction removed (replay_gaps)
            for log in self.topic.partitions:
                aged = log.next_offset - age
                if aged < 0:
                    aged = 0
                if aged < offsets[log.partition]:
                    offsets[log.partition] = aged
        session.expected_offsets = offsets
        staleness = sum(
            max(0, log.next_offset - offsets[log.partition])
            for log in self.topic.partitions
        )
        client.staleness_at_connect.append(staleness)
        self.sessions[client.name] = session
        if session.tracer is not None:
            session.tracer.record(
                hops.EDGE_CONNECT, self.name,
                session=session.name, client=client.name,
                mode="replay" if staleness else "live", staleness=staleness,
            )
        if staleness:
            # there is no snapshot to re-serve: pubsub must deliver every
            # message, however far behind — so catch-up always replays
            # the source log (catchup_threshold only sizes the batches
            # already; a longer lag just means more batches)
            self.catchups_served += 1
            session.live = False
            self.sim.call_after(
                REPLAY_LATENCY, lambda: self._replay_step(session)
            )
        return session

    def _replay_step(self, session: ClientSession) -> None:
        if not session.active or not self.up:
            return
        behind = False
        for log in self.topic.partitions:
            expected = session.expected_offsets.get(log.partition, 0)
            if expected >= log.next_offset:
                continue
            messages = log.read_from(expected, limit=REPLAY_BATCH)
            if not messages:
                # everything from the cursor to the head is gone (GC)
                self.replay_gaps += log.next_offset - expected
                session.expected_offsets[log.partition] = log.next_offset
                continue
            for message in messages:
                if message.offset > expected:
                    # silent hole: retention GC or compaction (§3.1)
                    self.replay_gaps += message.offset - expected
                expected = message.offset + 1
                session.expected_offsets[log.partition] = expected
                self.replayed += 1
                session.offer(self._update_from(message))
                if not session.active:
                    return  # replay overflowed a disconnect-policy session
            if expected < log.next_offset:
                behind = True
        if behind:
            self.sim.call_after(
                REPLAY_LATENCY, lambda: self._replay_step(session)
            )
        else:
            session.live = True

    def _session_closed(self, session: ClientSession, reason: str) -> None:
        if self.sessions.get(session.client.name) is session:
            del self.sessions[session.client.name]

    # ------------------------------------------------------------------
    # Failable protocol

    def crash(self) -> None:
        if not self.up:
            return
        self.up = False
        for session in list(self.sessions.values()):
            session.close("frontend-down")
        self._consumer.crash()
        if self._uplink is not None:
            self._uplink.crash()
            self._edge_channel.crash()

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        self._consumer.recover()
        if self._uplink is not None:
            self._uplink.recover()
            self._edge_channel.recover()
