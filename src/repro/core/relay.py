"""Watch relays: linked caches that re-serve the watch protocol.

§4.4 notes that "applications can choose between different watch
systems optimized for different scale points, e.g. degree of fan out".
A relay is the fan-out building block: it consumes a watch stream like
any linked cache, and simultaneously *offers* the watch contract to a
layer of downstream watchers — including serving their resync
snapshots from its own materialized, versioned state, so the fan-out
tree offloads both notification and snapshot traffic from the source.

Correctness across the relay's own failures:

- a relay resync means it *missed* upstream events; those can never be
  replayed downstream.  After the relay re-snapshots at version v, it
  raises its fan-out floor to v: downstream watchers that had not
  already advanced past v are resynced, and their snapshot fetch —
  served from the relay's fresh state — closes the gap.  No silent
  loss at any level of the tree.
- while the relay is mid-resync, downstream snapshot requests get
  :class:`~repro.core.linked_cache.SnapshotUnavailable` and retry.

Because the relay is itself a :class:`LinkedCache`, trees compose:
a relay can watch another relay.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro._types import KEY_MAX, KEY_MIN, Key, KeyRange, VERSION_ZERO, Version
from repro.core.api import Cancellable, Ingester, WatchCallback, Watchable
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.linked_cache import (
    LinkedCache,
    LinkedCacheConfig,
    SnapshotUnavailable,
)
from repro.core.stream import WatcherConfig
from repro.core.watch_system import (
    WatchSystem,
    _SYSTEM_TRACER,
)
from repro.obs.trace import hops
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.sim.kernel import Simulation
from repro.sim.network import Network

_ALL_KEYS = KeyRange(KEY_MIN, KEY_MAX)


class WatchRelay(LinkedCache, Watchable):
    """A linked cache that fans its stream out to downstream watchers."""

    def __init__(
        self,
        sim: Simulation,
        upstream,  # anything with watch_range (WatchSystem/StoreWatch/relay)
        snapshot_fn,
        key_range: KeyRange,
        config: Optional[LinkedCacheConfig] = None,
        name: str = "relay",
        tracer=None,
    ) -> None:
        super().__init__(
            sim, upstream, snapshot_fn, key_range, config, name, tracer=tracer
        )
        self.fanout = WatchSystem(sim, name=f"{name}-fanout", tracer=tracer)

    # ------------------------------------------------------------------
    # upstream side: feed the fan-out as we apply

    def on_event(self, event: ChangeEvent) -> None:
        if self.state != "watching":
            return
        super().on_event(event)
        self.fanout.append(event)

    def on_progress(self, event: ProgressEvent) -> None:
        if self.state != "watching":
            return
        super().on_progress(event)
        overlap = self.key_range.intersect(event.key_range)
        if overlap is not None:
            self.fanout.progress(
                ProgressEvent(overlap.low, overlap.high, event.version)
            )

    def _finish_sync(self, generation: int) -> None:
        super()._finish_sync(generation)
        if self.state != "watching":
            return  # superseded/unavailable; a retry will come back here
        # events at or below the snapshot version never entered (or no
        # longer survive in) the fan-out buffer, so no downstream watch
        # below it can be caught up from the stream — true of the very
        # first sync as much as of a resync: a relay that snapshots a
        # non-empty store must floor out watchers starting from zero
        # instead of silently streaming them nothing.
        self.fanout.raise_floor(self.knowledge.max_known_version())

    # ------------------------------------------------------------------
    # downstream side

    def watch(
        self, low: Key, high: Key, version: Version, callback: WatchCallback
    ) -> Cancellable:
        return self.fanout.watch(low, high, version, callback)

    def watch_range(
        self,
        key_range: KeyRange,
        version: Version,
        callback: WatchCallback,
        config: Optional[WatcherConfig] = None,
        tracer=_SYSTEM_TRACER,
        progress: bool = True,
    ) -> Cancellable:
        return self.fanout.watch_range(
            key_range, version, callback, config,
            tracer=tracer, progress=progress,
        )

    def snapshot_for_downstream(
        self, key_range: KeyRange
    ) -> Tuple[Version, Dict[Key, Any]]:
        """Serve a resync snapshot from the relay's own state.

        The snapshot is taken at the newest version the relay provably
        knows for the requested range (knowledge regions), so it is as
        correct as a store snapshot, just possibly staler — which §4.2.1
        explicitly allows ("it is acceptable to read a stale snapshot").
        """
        version = self.snapshot_version(key_range)
        return version, self.data.items_at(key_range, version)

    def snapshot_version(self, key_range: KeyRange) -> Version:
        """The version ``snapshot_for_downstream`` would serve right now.

        Split out so edge frontends can probe the version *before*
        assembling items: during a mass-snapshot reconnect storm the
        relay state is frozen between commits, so every session sharing
        a key range would re-run the same range scan — the frontend
        caches the assembled items keyed by this version instead.
        """
        if self.state != "watching":
            raise SnapshotUnavailable(f"relay {self.name} is {self.state}")
        version = self.knowledge.best_snapshot_version(key_range)
        if version is None:
            raise SnapshotUnavailable(
                f"relay {self.name} has no complete knowledge of {key_range}"
            )
        return version


class ReliableFanoutLink(WatchCallback):
    """Ships a watch stream across the network to a remote ingest tier.

    The fan-out edge of a relay tree that crosses a *lossy* link (e.g.
    source DC → edge PoP): change and progress events are forwarded
    through a :class:`~repro.resilience.channel.ReliableChannel` with
    ordered delivery, so the per-range event order the Ingester contract
    requires survives loss-and-retransmit reordering.  Fire-and-forget
    configs (``reliable=False``) model the naive alternative: a dropped
    event silently desynchronizes the remote tier forever.

    If the upstream declares resync (the link fell below the retained
    floor), the link re-watches from the current floor and ships a
    resync marker; the remote endpoint raises its ingester's floor,
    which forces *its* downstream watchers through their own
    snapshot+resync — loss recovery propagates down the tree instead of
    being silently absorbed.
    """

    def __init__(
        self,
        sim: Simulation,
        upstream,  # anything with watch_range (WatchSystem/relay)
        net: Network,
        name: str,
        remote: str,
        config: Optional[ChannelConfig] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.upstream = upstream
        self.remote = remote
        self.tracer = tracer if tracer is not None else net.tracer
        if config is None:
            config = ChannelConfig(ordered=True)
        self.channel = ReliableChannel(sim, net, name, config=config, tracer=tracer)
        self.events_shipped = 0
        self.resyncs = 0
        upstream.watch_range(_ALL_KEYS, VERSION_ZERO, self)

    # WatchCallback --------------------------------------------------

    def on_event(self, event: ChangeEvent) -> None:
        self.events_shipped += 1
        seq = self.channel.send(self.remote, self._event_frame(event))
        if self.tracer is not None:
            self.tracer.record(
                hops.RELAY_SHIP, self.channel.name,
                key=event.key, version=event.version,
                channel=self.channel.name, dst=self.remote, seq=seq,
            )

    def _event_frame(self, event: ChangeEvent) -> Dict[str, Any]:
        """The frame one change event ships in; subclasses may add
        in-band metadata (its bytes then land in ``net.bytes.*``)."""
        return {"kind": "event", "event": event}

    def on_progress(self, event: ProgressEvent) -> None:
        self.channel.send(self.remote, {"kind": "progress", "event": event})

    def on_resync(self) -> None:
        self.resyncs += 1
        floor = getattr(self.upstream, "retained_floor", VERSION_ZERO)
        self.channel.send(self.remote, {"kind": "resync", "version": floor})
        self.upstream.watch_range(_ALL_KEYS, floor, self)

    # Failable protocol (the link is the thing chaos experiments cut)
    def crash(self) -> None:
        self.channel.crash()

    def recover(self) -> None:
        self.channel.recover()


class ReliableFanoutEndpoint:
    """Remote end of a :class:`ReliableFanoutLink`: feeds an ingester."""

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        name: str,
        ingester: Ingester,
        config: Optional[ChannelConfig] = None,
        tracer=None,
    ) -> None:
        self.ingester = ingester
        self.events_ingested = 0
        self.tracer = tracer if tracer is not None else net.tracer
        if config is None:
            config = ChannelConfig(ordered=True)
        self.channel = ReliableChannel(
            sim, net, name, handler=self._on_frame, config=config,
            tracer=tracer,
        )

    def _on_frame(self, src: str, frame: Dict[str, Any]) -> None:
        kind = frame["kind"]
        if kind == "event":
            self.events_ingested += 1
            event = frame["event"]
            if self.tracer is not None:
                self.tracer.record(
                    hops.RELAY_INGEST, self.channel.name,
                    key=event.key, version=event.version,
                    endpoint=self.channel.name,
                )
            self.ingester.append(event)
        elif kind == "progress":
            self.ingester.progress(frame["event"])
        else:  # resync: push the gap down to our own watchers
            raise_floor = getattr(self.ingester, "raise_floor", None)
            if raise_floor is not None:
                raise_floor(frame["version"])

    # Failable protocol
    def crash(self) -> None:
        self.channel.crash()

    def recover(self) -> None:
        self.channel.recover()
