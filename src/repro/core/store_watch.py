"""Built-in watch: the store implements the watch contract directly.

This is the left column of Figure 3 — Spanner change streams, the
Kubernetes API server over etcd: "the store may directly implement the
watch contract" (§4.2.2).  :class:`StoreWatch` layers on any object
exposing a :class:`~repro.storage.history.ChangeHistory` (the MVCC
store or the ingestion store) and:

- streams each committed write as a :class:`ChangeEvent`;
- emits a whole-keyspace :class:`ProgressEvent` after every commit
  (the history is totally ordered, so commit version v is a sound
  punctuation for all keys);
- answers a ``watch`` from an old version by replaying retained
  history, or signalling resync when the history has been truncated —
  the caller then snapshots the store and re-watches.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from repro._types import KEY_MAX, KEY_MIN, Key, KeyRange, Version
from repro.core.api import Cancellable, Watchable, WatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import WatcherConfig, WatcherSession
from repro.sim.kernel import Simulation
from repro.storage.history import ChangeHistory, CommittedTransaction


class HistoryBacked(Protocol):
    """Any store exposing an ordered commit history."""

    @property
    def history(self) -> ChangeHistory: ...  # noqa: E704


class StoreWatch(Watchable):
    """Watch served directly by the store (no extra system)."""

    def __init__(
        self,
        sim: Simulation,
        store: HistoryBacked,
        watcher_defaults: Optional[WatcherConfig] = None,
    ) -> None:
        self.sim = sim
        self.store = store
        self.watcher_defaults = watcher_defaults or WatcherConfig()
        self._sessions: List[WatcherSession] = []
        #: one bound method, shared by every session this owner opens
        self._on_session_closed = self._session_closed
        store.history.tail(self._on_commit)
        self.resyncs_issued = 0

    # ------------------------------------------------------------------
    # store side

    def _on_commit(self, commit: CommittedTransaction) -> None:
        # offers never synchronously close sessions (closures run at
        # delivery time via scheduled events), so no defensive copy;
        # events are built once per commit and shared across sessions
        version = commit.version
        events = [ChangeEvent(key, mutation, version) for key, mutation in commit.writes]
        progress = ProgressEvent(KEY_MIN, KEY_MAX, version)
        for session in self._sessions:
            for event in events:
                session.offer_event(event)
            session.offer_progress(progress)

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
    ) -> Cancellable:
        """Watch with optional per-watch delivery configuration."""
        session = WatcherSession(
            sim=self.sim,
            key_range=key_range,
            from_version=version,
            callback=callback,
            config=config or self.watcher_defaults,
            on_closed=self._on_session_closed,
        )
        self._sessions.append(session)
        history = self.store.history
        if not history.can_replay_from(version):
            self.resyncs_issued += 1
            session.signal_resync()
            return session
        for commit in history.since(version):
            for key, mutation in commit.writes:
                session.offer_event(ChangeEvent(key, mutation, commit.version))
        if history.last_version > version:
            session.offer_progress(
                ProgressEvent(KEY_MIN, KEY_MAX, history.last_version)
            )
        return session

    def _session_closed(self, session: WatcherSession) -> None:
        if session in self._sessions:
            self._sessions.remove(session)
