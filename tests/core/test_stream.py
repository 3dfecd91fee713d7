"""Tests for watcher sessions: filtering, ordering, backlog resync."""

import pytest

from repro._types import KeyRange, Mutation
from repro.core.api import FnWatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import WatcherConfig, WatcherSession


def collector():
    events, progress, resyncs = [], [], []
    callback = FnWatchCallback(
        on_event=events.append,
        on_progress=progress.append,
        on_resync=lambda: resyncs.append(True),
    )
    return callback, events, progress, resyncs


def event(key, version, value=None):
    return ChangeEvent(key, Mutation.put(value if value is not None else version), version)


class TestFiltering:
    def test_range_filter(self, sim):
        callback, events, _, _ = collector()
        session = WatcherSession(sim, KeyRange("a", "m"), 0, callback, WatcherConfig())
        session.offer_event(event("b", 1))
        session.offer_event(event("x", 2))  # out of range
        sim.run()
        assert [e.key for e in events] == ["b"]

    def test_version_filter(self, sim):
        callback, events, _, _ = collector()
        session = WatcherSession(sim, KeyRange.all(), 5, callback, WatcherConfig())
        session.offer_event(event("a", 5))  # not newer than from_version
        session.offer_event(event("a", 6))
        sim.run()
        assert [e.version for e in events] == [6]

    def test_progress_clipped_to_watch_range(self, sim):
        callback, _, progress, _ = collector()
        session = WatcherSession(sim, KeyRange("c", "f"), 0, callback, WatcherConfig())
        session.offer_progress(ProgressEvent("a", "z", 9))
        session.offer_progress(ProgressEvent("x", "z", 10))  # disjoint
        sim.run()
        assert len(progress) == 1
        assert (progress[0].low, progress[0].high) == ("c", "f")
        assert progress[0].version == 9


class TestDelivery:
    def test_fifo_order_preserved(self, sim):
        callback, events, progress, _ = collector()
        session = WatcherSession(sim, KeyRange.all(), 0, callback, WatcherConfig())
        session.offer_event(event("a", 1))
        session.offer_progress(ProgressEvent("", "\U0010ffff", 1))
        session.offer_event(event("a", 2))
        sim.run()
        assert [e.version for e in events] == [1, 2]
        assert progress[0].version == 1

    def test_delivery_latency(self, sim):
        callback, events, _, _ = collector()
        seen_at = []
        callback.on_event = lambda e: seen_at.append(sim.now())
        session = WatcherSession(
            sim, KeyRange.all(), 0, callback,
            WatcherConfig(delivery_latency=0.5),
        )
        session.offer_event(event("a", 1))
        sim.run()
        assert seen_at == [0.5]

    def test_service_time_paces_delivery(self, sim):
        seen_at = []
        callback = FnWatchCallback(on_event=lambda e: seen_at.append(sim.now()))
        session = WatcherSession(
            sim, KeyRange.all(), 0, callback,
            WatcherConfig(delivery_latency=0.0, service_time=1.0),
        )
        for v in range(1, 4):
            session.offer_event(event("a", v))
        sim.run()
        assert seen_at == [1.0, 2.0, 3.0]

    def test_large_queue_drains_without_recursion(self, sim):
        callback, events, _, _ = collector()
        session = WatcherSession(sim, KeyRange.all(), 0, callback,
                                 WatcherConfig(max_backlog=100_000))
        for v in range(1, 5001):
            session.offer_event(event("a", v))
        sim.run()
        assert len(events) == 5000

    def test_delivered_version_tracks_max(self, sim):
        callback, _, _, _ = collector()
        session = WatcherSession(sim, KeyRange.all(), 0, callback, WatcherConfig())
        session.offer_event(event("a", 3))
        session.offer_event(event("b", 7))
        sim.run()
        assert session.delivered_version == 7


class TestBacklogResync:
    def test_overflow_drops_queue_and_resyncs(self, sim):
        callback, events, _, resyncs = collector()
        session = WatcherSession(
            sim, KeyRange.all(), 0, callback,
            WatcherConfig(max_backlog=5, service_time=100.0),
        )
        for v in range(1, 20):
            session.offer_event(event("a", v))
        sim.run(until=1000.0)
        assert resyncs == [True]
        assert not session.active  # session ends at resync
        assert session.overflow_drops > 0

    def test_explicit_resync_signal(self, sim):
        callback, events, _, resyncs = collector()
        session = WatcherSession(sim, KeyRange.all(), 0, callback, WatcherConfig())
        session.offer_event(event("a", 1))
        session.signal_resync()
        session.offer_event(event("a", 2))  # after resync: dropped
        sim.run()
        assert resyncs == [True]
        assert events == []  # queue dropped before delivery

    def test_on_closed_fires_once(self, sim):
        closed = []
        callback, _, _, _ = collector()
        session = WatcherSession(
            sim, KeyRange.all(), 0, callback, WatcherConfig(),
            on_closed=closed.append,
        )
        session.signal_resync()
        sim.run()
        assert closed == [session]
        session.cancel()  # already closed: no second callback
        assert closed == [session]


class TestCancellation:
    def test_cancel_stops_delivery(self, sim):
        callback, events, _, _ = collector()
        session = WatcherSession(
            sim, KeyRange.all(), 0, callback,
            WatcherConfig(delivery_latency=1.0),
        )
        session.offer_event(event("a", 1))
        session.cancel()
        sim.run()
        assert events == []
        assert not session.active

    def test_offers_after_cancel_ignored(self, sim):
        callback, events, _, _ = collector()
        session = WatcherSession(sim, KeyRange.all(), 0, callback, WatcherConfig())
        session.cancel()
        session.offer_event(event("a", 1))
        session.offer_progress(ProgressEvent("", "z", 1))
        session.signal_resync()
        sim.run()
        assert events == []
        assert session.backlog == 0
