"""Tests for the standalone watch system (the Snappy stand-in)."""

import pytest

from repro._types import KEY_MAX, KEY_MIN, KeyRange, Mutation
from repro.core.api import FnWatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import WatcherConfig
from repro.core.watch_system import WatchSystem, WatchSystemConfig


def collector():
    events, progress, resyncs = [], [], []
    callback = FnWatchCallback(
        on_event=events.append,
        on_progress=progress.append,
        on_resync=lambda: resyncs.append(True),
    )
    return callback, events, progress, resyncs


def change(key, version):
    return ChangeEvent(key, Mutation.put(version), version)


class TestIngestAndWatch:
    def test_live_events_delivered(self, sim):
        ws = WatchSystem(sim)
        callback, events, _, _ = collector()
        ws.watch(KEY_MIN, KEY_MAX, 0, callback)
        ws.append(change("a", 1))
        ws.append(change("b", 2))
        sim.run()
        assert [e.version for e in events] == [1, 2]

    def test_catch_up_from_buffer(self, sim):
        ws = WatchSystem(sim)
        for v in range(1, 6):
            ws.append(change("a", v))
        callback, events, _, _ = collector()
        ws.watch(KEY_MIN, KEY_MAX, 2, callback)
        sim.run()
        assert [e.version for e in events] == [3, 4, 5]

    def test_range_scoping(self, sim):
        ws = WatchSystem(sim)
        callback, events, _, _ = collector()
        ws.watch("a", "m", 0, callback)
        ws.append(change("b", 1))
        ws.append(change("q", 2))
        sim.run()
        assert [e.key for e in events] == ["b"]

    def test_progress_forwarded_and_replayed(self, sim):
        ws = WatchSystem(sim)
        ws.progress(ProgressEvent("a", "m", 9))
        callback, _, progress, _ = collector()
        ws.watch("a", "z", 0, callback)  # mark replayed at watch time
        ws.progress(ProgressEvent("m", "z", 4))
        sim.run()
        versions = {(p.low, p.high): p.version for p in progress}
        assert versions[("a", "m")] == 9
        assert versions[("m", "z")] == 4

    def test_stale_progress_ignored(self, sim):
        ws = WatchSystem(sim)
        ws.progress(ProgressEvent("a", "z", 9))
        ws.progress(ProgressEvent("a", "z", 5))  # stale duplicate
        callback, _, progress, _ = collector()
        ws.watch("a", "z", 0, callback)
        sim.run()
        assert [p.version for p in progress] == [9]


class TestRetentionAndResync:
    def test_eviction_raises_floor(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=3))
        for v in range(1, 8):
            ws.append(change("a", v))
        assert len(ws._buffer) - ws._buf_head == 3
        assert ws.retained_floor == 4
        assert ws.events_evicted == 4

    def test_watch_below_floor_resyncs_immediately(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=2))
        for v in range(1, 6):
            ws.append(change("a", v))
        callback, events, _, resyncs = collector()
        ws.watch(KEY_MIN, KEY_MAX, 1, callback)
        sim.run()
        assert resyncs == [True]
        assert events == []
        assert ws.metrics.snapshot() == {
            "watch.watchsys.resyncs": 1.0, "watch.watchsys.watches": 1.0,
        }

    def test_watch_at_floor_catches_up(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=2))
        for v in range(1, 6):
            ws.append(change("a", v))
        callback, events, _, resyncs = collector()
        ws.watch(KEY_MIN, KEY_MAX, ws.retained_floor, callback)
        sim.run()
        assert resyncs == []
        assert [e.version for e in events] == [4, 5]

    def test_punctuation_soundness(self, sim):
        """After a progress event for (range, v), no event in range with
        version <= v is ever delivered."""
        ws = WatchSystem(sim)
        log = []
        callback = FnWatchCallback(
            on_event=lambda e: log.append(("event", e.key, e.version)),
            on_progress=lambda p: log.append(("progress", p.low, p.version)),
        )
        ws.watch("a", "z", 0, callback)
        ws.append(change("b", 1))
        ws.append(change("c", 2))
        ws.progress(ProgressEvent("a", "z", 2))
        ws.append(change("b", 3))
        ws.progress(ProgressEvent("a", "z", 3))
        sim.run()
        seen_progress = 0
        for entry in log:
            if entry[0] == "progress":
                seen_progress = max(seen_progress, entry[2])
            else:
                assert entry[2] > seen_progress


class TestWipe:
    def test_wipe_resyncs_active_watchers(self, sim):
        ws = WatchSystem(sim)
        callback, events, _, resyncs = collector()
        ws.watch(KEY_MIN, KEY_MAX, 0, callback)
        ws.append(change("a", 1))
        sim.run()
        ws.wipe()
        sim.run()
        assert resyncs == [True]
        assert len(ws._buffer) - ws._buf_head == 0
        assert ws.active_watchers == 0

    def test_wipe_raises_floor_to_high_water(self, sim):
        ws = WatchSystem(sim)
        for v in range(1, 6):
            ws.append(change("a", v))
        ws.wipe()
        assert ws.retained_floor == 5
        # a new watch from before the wipe must resync
        callback, _, _, resyncs = collector()
        ws.watch(KEY_MIN, KEY_MAX, 3, callback)
        sim.run()
        assert resyncs == [True]

    def test_soft_state_accounting(self, sim):
        ws = WatchSystem(sim)
        assert ws.soft_state_bytes() == 0
        ws.append(change("a", 1))
        assert ws.soft_state_bytes() > 0
        assert ws.soft_state_peak_events == 1


class TestSessionManagement:
    def test_cancel_detaches(self, sim):
        ws = WatchSystem(sim)
        callback, events, _, _ = collector()
        handle = ws.watch(KEY_MIN, KEY_MAX, 0, callback)
        handle.cancel()
        ws.append(change("a", 1))
        sim.run()
        assert events == []
        assert ws.active_watchers == 0

    def test_watch_range_with_custom_config(self, sim):
        ws = WatchSystem(sim)
        seen_at = []
        callback = FnWatchCallback(on_event=lambda e: seen_at.append(sim.now()))
        ws.watch_range(
            KeyRange.all(), 0, callback,
            config=WatcherConfig(delivery_latency=2.0),
        )
        ws.append(change("a", 1))
        sim.run()
        assert seen_at == [2.0]

    def test_slow_watcher_overflow_resync(self, sim):
        ws = WatchSystem(sim)
        callback, _, _, resyncs = collector()
        ws.watch_range(
            KeyRange.all(), 0, callback,
            config=WatcherConfig(service_time=10.0, max_backlog=5),
        )
        for v in range(1, 50):
            ws.append(change("a", v))
        sim.run(until=10000.0)
        assert resyncs == [True]
        assert ws.active_watchers == 0
