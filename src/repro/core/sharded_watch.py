"""A sharded watch system: horizontal scaling of the watch layer.

§4.4: "an external watch system can provide watch on top of any store
that supports the ingestion interface.  Applications can choose between
different watch systems optimized for different scale points."  This
module scales the watch layer itself: the keyspace is partitioned over
N independent :class:`~repro.core.watch_system.WatchSystem` shards.

- ``Ingester``: appends route by key; progress events are split at
  shard boundaries (range-scoped progress makes this sound — §4.2.2's
  "each system layer [can] define its own partition boundaries").
- ``Watchable``: a watch over a range spanning shards becomes one
  sub-session per shard, wrapped so the caller sees a single stream.
  Per-key version order is preserved (each key lives in one shard);
  cross-shard interleaving is, as everywhere in this model, made safe
  by range-scoped progress.  If any shard resyncs the composite watch,
  the other sub-sessions are cancelled and the caller gets exactly one
  ``on_resync``.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

from repro._types import Key, KeyRange, Version
from repro.core.api import Cancellable, Ingester, Watchable, WatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import WatcherConfig
from repro.core.watch_system import WatchSystem
from repro.sim.kernel import Simulation


class _CompositeWatch(Cancellable):
    """One logical watch backed by a sub-session per shard."""

    def __init__(self, callback: WatchCallback) -> None:
        self._callback = callback
        self._subs: List[Cancellable] = []
        self._active = True
        self._resynced = False

    def add(self, sub: Cancellable) -> None:
        self._subs.append(sub)

    @property
    def active(self) -> bool:
        return self._active and not self._resynced

    def cancel(self) -> None:
        self._active = False
        for sub in self._subs:
            sub.cancel()

    # callbacks forwarded from sub-sessions --------------------------------

    def on_event(self, event: ChangeEvent) -> None:
        if self.active:
            self._callback.on_event(event)

    def on_progress(self, event: ProgressEvent) -> None:
        if self.active:
            self._callback.on_progress(event)

    def on_resync(self) -> None:
        if not self.active:
            return
        self._resynced = True
        for sub in self._subs:
            sub.cancel()
        self._callback.on_resync()


class _SubCallback(WatchCallback):
    def __init__(self, composite: _CompositeWatch) -> None:
        self._composite = composite

    def on_event(self, event: ChangeEvent) -> None:
        self._composite.on_event(event)

    def on_progress(self, event: ProgressEvent) -> None:
        self._composite.on_progress(event)

    def on_resync(self) -> None:
        self._composite.on_resync()


class ShardedWatchSystem(Watchable, Ingester):
    """N independent watch-system shards behind one facade."""

    def __init__(
        self,
        sim: Simulation,
        ranges: Sequence[KeyRange],
        name: str = "sharded-watch",
    ) -> None:
        if not ranges:
            raise ValueError("need at least one shard range")
        ordered = sorted(ranges, key=lambda r: r.low)
        for a, b in zip(ordered, ordered[1:]):
            if a.high != b.low:
                raise ValueError(f"shard ranges must tile the keyspace: {a} | {b}")
        self.sim = sim
        self.name = name
        self.ranges: List[KeyRange] = list(ordered)
        self._lows = [r.low for r in ordered]
        self.shards: List[WatchSystem] = [
            WatchSystem(sim, name=f"{name}-{idx}")
            for idx in range(len(ordered))
        ]

    def _shard_for(self, key: Key) -> WatchSystem:
        idx = bisect.bisect_right(self._lows, key) - 1
        return self.shards[max(idx, 0)]

    # ------------------------------------------------------------------
    # Ingester

    def append(self, event: ChangeEvent) -> None:
        self._shard_for(event.key).append(event)

    def progress(self, event: ProgressEvent) -> None:
        for shard_range, shard in zip(self.ranges, self.shards):
            overlap = shard_range.intersect(event.key_range)
            if overlap is not None:
                shard.progress(
                    ProgressEvent(overlap.low, overlap.high, event.version)
                )

    # ------------------------------------------------------------------
    # Watchable

    def watch(
        self, low: Key, high: Key, version: Version, callback: WatchCallback
    ) -> Cancellable:
        return self.watch_range(KeyRange(low, high), version, callback)

    def watch_range(
        self,
        key_range: KeyRange,
        version: Version,
        callback: WatchCallback,
        config: Optional[WatcherConfig] = None,
        predicate=None,
    ) -> Cancellable:
        composite = _CompositeWatch(callback)
        sub_callback = _SubCallback(composite)
        for shard_range, shard in zip(self.ranges, self.shards):
            overlap = shard_range.intersect(key_range)
            if overlap is None:
                continue
            composite.add(
                shard.watch_range(
                    overlap, version, sub_callback,
                    config=config, predicate=predicate,
                )
            )
        return composite

    # ------------------------------------------------------------------
    # introspection

    def shard_loads(self) -> List[int]:
        """Events ingested per shard (balance diagnostics)."""
        return [s.events_ingested for s in self.shards]

    def wipe_shard(self, index: int) -> None:
        """Destroy one shard's soft state; only its watchers resync —
        the failure-isolation benefit of sharding the watch layer."""
        self.shards[index].wipe()
