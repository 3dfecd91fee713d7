"""Tests for ingest bridges: ordering, range progress, reordering."""

import pytest

from repro._types import KEY_MAX, KEY_MIN, KeyRange, Mutation
from repro.core.api import Ingester
from repro.core.bridge import (
    DirectIngestBridge,
    PartitionedIngestBridge,
    even_ranges,
)
from repro.core.events import ChangeEvent, ProgressEvent
from repro.storage.kv import MVCCStore


class RecordingIngester(Ingester):
    def __init__(self):
        self.events = []
        self.progress_events = []

    def append(self, event: ChangeEvent) -> None:
        self.events.append(event)

    def progress(self, event: ProgressEvent) -> None:
        self.progress_events.append(event)


class TestEvenRanges:
    def test_covers_keyspace(self):
        from repro._types import ranges_cover

        for n in (1, 3, 8, 26):
            ranges = even_ranges(n)
            assert ranges_cover(ranges, KeyRange.all())

    def test_non_overlapping_and_sorted(self):
        ranges = even_ranges(5)
        for a, b in zip(ranges, ranges[1:]):
            assert a.high == b.low

    def test_invalid(self):
        with pytest.raises(ValueError):
            even_ranges(0)


class TestDirectBridge:
    def test_forwards_in_order(self, sim):
        store = MVCCStore()
        ingester = RecordingIngester()
        DirectIngestBridge(sim, store.history, ingester, latency=0.01)
        for i in range(10):
            store.put("k", i)
        sim.run_for(1.0)
        assert [e.mutation.value for e in ingester.events] == list(range(10))
        versions = [e.version for e in ingester.events]
        assert versions == sorted(versions)

    def test_periodic_whole_keyspace_progress(self, sim):
        store = MVCCStore()
        ingester = RecordingIngester()
        DirectIngestBridge(sim, store.history, ingester, progress_interval=1.0)
        v = store.put("k", 1)
        sim.run_for(3.0)
        assert ingester.progress_events
        last = ingester.progress_events[-1]
        assert (last.low, last.high) == (KEY_MIN, KEY_MAX)
        assert last.version == v

    def test_close_stops_forwarding(self, sim):
        store = MVCCStore()
        ingester = RecordingIngester()
        bridge = DirectIngestBridge(sim, store.history, ingester)
        bridge.close()
        store.put("k", 1)
        sim.run_for(2.0)
        assert ingester.events == []


class TestPartitionedBridge:
    def test_per_range_event_order_preserved(self, sim):
        store = MVCCStore()
        ingester = RecordingIngester()
        PartitionedIngestBridge(
            sim, store.history, ingester, even_ranges(4),
        )
        for i in range(40):
            store.put(f"{'az'[i % 2]}key", i)
        sim.run_for(5.0)
        # per-key versions arrive in order even if globally interleaved
        per_key = {}
        for e in ingester.events:
            per_key.setdefault(e.key, []).append(e.version)
        for versions in per_key.values():
            assert versions == sorted(versions)

    def test_staggered_latency_reorders_globally(self, sim):
        store = MVCCStore()
        ingester = RecordingIngester()
        PartitionedIngestBridge(
            sim, store.history, ingester, even_ranges(4),
            base_latency=0.001, latency_stagger=0.05,
        )
        # alternate writes across distant ranges
        for i in range(20):
            store.put("a-key" if i % 2 else "z-key", i)
        sim.run_for(5.0)
        versions = [e.version for e in ingester.events]
        assert versions != sorted(versions)  # global order broken (by design)

    def test_progress_is_range_scoped(self, sim):
        store = MVCCStore()
        ingester = RecordingIngester()
        ranges = even_ranges(4)
        PartitionedIngestBridge(
            sim, store.history, ingester, ranges, progress_interval=0.5
        )
        v = store.put("b-key", 1)
        sim.run_for(2.0)
        scopes = {(p.low, p.high) for p in ingester.progress_events}
        assert scopes == {(r.low, r.high) for r in ranges}
        # every partition's progress reaches the commit version
        latest = {}
        for p in ingester.progress_events:
            latest[(p.low, p.high)] = p.version
        assert all(version == v for version in latest.values())

    def test_progress_soundness_per_range(self, sim):
        """No event for a range arrives after that range's progress
        covering its version (FIFO per partition guarantees it)."""
        store = MVCCStore()
        log = []

        class OrderIngester(Ingester):
            def append(self, event):
                log.append(("event", event.key, event.version))

            def progress(self, event):
                log.append(("progress", KeyRange(event.low, event.high), event.version))

        PartitionedIngestBridge(
            sim, store.history, OrderIngester(), even_ranges(3),
            progress_interval=0.3,
        )
        for i in range(60):
            store.put(f"{'amz'[i % 3]}k", i)
            sim.run_for(0.05)
        sim.run_for(2.0)
        marks = {}
        for entry in log:
            if entry[0] == "progress":
                marks[entry[1]] = max(marks.get(entry[1], 0), entry[2])
            else:
                _, key, version = entry
                for key_range, mark in marks.items():
                    if key_range.contains(key):
                        assert version > mark

    def test_requires_ranges(self, sim):
        store = MVCCStore()
        with pytest.raises(ValueError):
            PartitionedIngestBridge(sim, store.history, RecordingIngester(), [])
