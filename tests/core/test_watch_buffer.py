"""WatchSystem soft-state buffer: head-offset eviction and compaction.

The buffer never pops from the front — eviction advances ``_buf_head``
and a periodic compaction (once the dead prefix crosses
``_BUFFER_COMPACT_MIN`` *and* outgrows the live tail) slices it away in
one move, keeping per-event eviction amortized O(1).  These tests pin
the bookkeeping that the hot-path overhaul made subtle: the physical
list, the head offset, the retained floor, and catch-up bisection must
all agree across eviction and compaction cycles.
"""

import pytest

from repro._types import KEY_MAX, KEY_MIN, KeyRange, Mutation
from repro.core.api import FnWatchCallback
from repro.core.events import ChangeEvent
from repro.core.stream import WatcherConfig
from repro.core.watch_system import (
    _BUFFER_COMPACT_MIN,
    WatchSystem,
    WatchSystemConfig,
)


def collector():
    events, resyncs = [], []
    callback = FnWatchCallback(
        on_event=events.append,
        on_progress=lambda p: None,
        on_resync=lambda: resyncs.append(True),
    )
    return callback, events, resyncs


def change(key, version):
    return ChangeEvent(key, Mutation.put(version), version)


def fill(ws, n, start=1):
    for v in range(start, start + n):
        ws.append(change(f"k{v % 50:03d}", v))


class TestEvictionUnderLag:
    def test_lagging_session_keeps_its_queued_events(self, sim):
        """Buffer eviction never claws back events already offered to a
        session: the lagging watcher's private queue is its own."""
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=10))
        callback, events, resyncs = collector()
        ws.watch_range(
            KeyRange.all(), 0, callback,
            config=WatcherConfig(delivery_latency=1.0, service_time=1.0,
                                 max_backlog=1000),
        )
        fill(ws, 100)  # floor rises to 90 while the watcher crawls
        assert ws.retained_floor == 90
        assert ws.events_evicted == 90
        sim.run()
        assert [e.version for e in events] == list(range(1, 101))
        assert not resyncs

    def test_new_watch_below_floor_resyncs_immediately(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=10))
        fill(ws, 100)
        callback, events, resyncs = collector()
        ws.watch(KEY_MIN, KEY_MAX, 50, callback)  # 50 < floor of 90
        sim.run()
        assert resyncs == [True]
        assert events == []

    def test_new_watch_at_floor_catches_up_from_buffer(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=10))
        fill(ws, 100)
        callback, events, resyncs = collector()
        ws.watch(KEY_MIN, KEY_MAX, ws.retained_floor, callback)
        sim.run()
        assert not resyncs
        assert [e.version for e in events] == list(range(91, 101))


class TestPeriodicCompaction:
    def test_head_offset_grows_until_compaction_threshold(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=100))
        # one short of the threshold: the dead prefix is still physical
        fill(ws, _BUFFER_COMPACT_MIN + 99)
        assert ws._buf_head == _BUFFER_COMPACT_MIN - 1
        assert len(ws._buffer) == _BUFFER_COMPACT_MIN + 99
        assert len(ws._buffer) - ws._buf_head == 100

    def test_compaction_resets_head_and_preserves_the_tail(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=100))
        n = _BUFFER_COMPACT_MIN + 100  # head hits the threshold exactly
        fill(ws, n)
        assert ws._buf_head == 0
        assert len(ws._buffer) == 100
        assert len(ws._buffer) - ws._buf_head == 100
        assert ws.events_evicted == _BUFFER_COMPACT_MIN
        assert ws.retained_floor == _BUFFER_COMPACT_MIN
        assert [e.version for e in ws._buffer] == list(range(n - 99, n + 1))

    def test_catchup_straddling_compaction(self, sim):
        """A watcher attaching right after a compaction cycle sees
        exactly the retained suffix its version entitles it to."""
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=100))
        n = _BUFFER_COMPACT_MIN + 100
        fill(ws, n)
        assert ws._buf_head == 0  # compacted
        callback, events, resyncs = collector()
        ws.watch(KEY_MIN, KEY_MAX, n - 40, callback)
        sim.run()
        assert not resyncs
        assert [e.version for e in events] == list(range(n - 39, n + 1))
        # and the next eviction cycle starts from a clean head
        fill(ws, 10, start=n + 1)
        assert ws._buf_head == 10
        assert len(ws._buffer) - ws._buf_head == 100

    def test_physical_buffer_bounded_under_sustained_lag(self, sim):
        """With nobody consuming, the physical list stays within
        compact-threshold + retained even over many cycles."""
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=64))
        bound = _BUFFER_COMPACT_MIN + 64
        for v in range(1, 3 * _BUFFER_COMPACT_MIN + 1):
            ws.append(change(f"k{v % 50:03d}", v))
            assert len(ws._buffer) <= bound
        assert len(ws._buffer) - ws._buf_head == 64
        assert ws.events_evicted == 3 * _BUFFER_COMPACT_MIN - 64
        # peak is sampled post-append, pre-eviction: bound + 1
        assert ws.soft_state_peak_events == 65

    def test_raise_floor_compacts_when_prefix_is_large(self, sim):
        ws = WatchSystem(sim)  # default bound: nothing evicted yet
        n = 2 * _BUFFER_COMPACT_MIN
        fill(ws, n)
        ws.raise_floor(n - 10)  # drops a dead prefix > threshold
        assert ws._buf_head == 0
        assert len(ws._buffer) == 10
        assert len(ws._buffer) - ws._buf_head == 10
        assert ws.events_evicted == n - 10

    def test_raise_floor_clears_buffer_when_everything_is_below(self, sim):
        ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=100))
        fill(ws, 100)
        ws.raise_floor(500)
        assert len(ws._buffer) - ws._buf_head == 0
        assert ws._buf_head == 0
        assert ws._buffer == []
        assert ws.retained_floor == 500
