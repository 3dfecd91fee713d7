"""Ingestion store: the time-series-style store of §2 and §4.3.

For event ingestion and fanout, the paper proposes that "the publisher
exposes an ingestion store, e.g. a time-series database optimized for
ingestion of events"; producers insert events, consumers watch key
ranges and may query the store for state (§4.3).  This module provides
that store:

- events are appended under a series key (e.g. ``sensor/42``) and get a
  monotonic version from the store's oracle, so the store is watchable
  with exactly the same machinery as the MVCC store;
- queries: series keys by range, latest event per series, events in
  a time window, and the latest-payload snapshot a resyncing watcher
  loads.

Each appended event is also a commit in ``history`` (key = series key,
value = event), which is what the watch layers tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro._types import Key, KeyRange, Mutation, Version
from repro.storage.history import ChangeHistory, CommittedTransaction
from repro.storage.keyindex import SortedKeyIndex
from repro.storage.tso import TimestampOracle


@dataclass(frozen=True)
class Event:
    """One ingested event."""

    series: Key
    time: float
    payload: Any
    version: Version


class IngestionStore:
    """Append-optimized event store, watchable via its history."""

    def __init__(
        self,
        name: str = "ingest",
        history_retention_commits: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.tso = TimestampOracle()
        self.history = ChangeHistory(retention_commits=history_retention_commits)
        self._clock = clock or (lambda: 0.0)
        self._events: List[Event] = []  # version order == append order
        self._by_series: Dict[Key, List[Event]] = {}
        self._series_index = SortedKeyIndex()
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # ingestion

    def append(self, series: Key, payload: Any, time: Optional[float] = None) -> Event:
        """Ingest one event; returns it with its assigned version."""
        version = self.tso.next()
        event = Event(
            series=series,
            time=self._clock() if time is None else time,
            payload=payload,
            version=version,
        )
        self._events.append(event)
        per_series = self._by_series.get(series)
        if per_series is None:
            per_series = []
            self._by_series[series] = per_series
            self._series_index.add(series)  # amortized O(1), merged on read
        per_series.append(event)
        self.bytes_written += len(series) + 16 + len(repr(payload))
        self.history.append(
            CommittedTransaction(
                version=version,
                writes=((series, Mutation.put(payload)),),
                commit_time=event.time,
            )
        )
        return event

    # ------------------------------------------------------------------
    # queries

    @property
    def last_version(self) -> Version:
        return self.tso.last

    def __len__(self) -> int:
        return len(self._events)

    def scan_series(self, key_range: KeyRange = KeyRange.all()) -> List[Key]:
        """Series keys with events, in range, sorted."""
        return list(self._series_index.irange(key_range.low, key_range.high))

    def latest(self, series: Key) -> Optional[Event]:
        """Most recent retained event of a series."""
        events = self._by_series.get(series)
        return events[-1] if events else None

    def window(self, low_time: float, high_time: float) -> List[Event]:
        """Retained events with ``low_time <= time < high_time``."""
        return [e for e in self._events if low_time <= e.time < high_time]

    def snapshot_latest(self, key_range: KeyRange = KeyRange.all()) -> Dict[Key, Any]:
        """Latest payload per series in range (the resync snapshot)."""
        out: Dict[Key, Any] = {}
        for series in self.scan_series(key_range):
            event = self.latest(series)
            if event is not None:
                out[series] = event.payload
        return out
