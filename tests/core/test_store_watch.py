"""Tests for built-in watch over a store's history."""

import pytest

from repro._types import KEY_MAX, KEY_MIN, KeyRange
from repro.core.api import FnWatchCallback
from repro.core.store_watch import StoreWatch
from repro.storage.kv import MVCCStore
from repro.storage.timeseries import IngestionStore


def collector():
    events, progress, resyncs = [], [], []
    callback = FnWatchCallback(
        on_event=events.append,
        on_progress=progress.append,
        on_resync=lambda: resyncs.append(True),
    )
    return callback, events, progress, resyncs


class TestLiveStreaming:
    def test_commits_become_events(self, sim):
        store = MVCCStore()
        watch = StoreWatch(sim, store)
        callback, events, progress, _ = collector()
        watch.watch(KEY_MIN, KEY_MAX, 0, callback)
        v1 = store.put("a", 1)
        v2 = store.put("b", 2)
        sim.run()
        assert [(e.key, e.version) for e in events] == [("a", v1), ("b", v2)]
        # per-commit progress: the last one covers everything
        assert progress[-1].version == v2

    def test_multi_key_commit_events_share_version(self, sim):
        from repro._types import Mutation

        store = MVCCStore()
        watch = StoreWatch(sim, store)
        callback, events, _, _ = collector()
        watch.watch(KEY_MIN, KEY_MAX, 0, callback)
        v = store.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
        sim.run()
        assert [e.version for e in events] == [v, v]

    def test_range_scoped(self, sim):
        store = MVCCStore()
        watch = StoreWatch(sim, store)
        callback, events, _, _ = collector()
        watch.watch("a", "m", 0, callback)
        store.put("b", 1)
        store.put("x", 2)
        sim.run()
        assert [e.key for e in events] == ["b"]

    def test_deletes_stream_as_delete_mutations(self, sim):
        store = MVCCStore()
        watch = StoreWatch(sim, store)
        callback, events, _, _ = collector()
        watch.watch(KEY_MIN, KEY_MAX, 0, callback)
        store.put("a", 1)
        store.delete("a")
        sim.run()
        assert events[-1].mutation.is_delete


class TestCatchUp:
    def test_replays_retained_history(self, sim):
        store = MVCCStore()
        v1 = store.put("a", 1)
        store.put("a", 2)
        watch = StoreWatch(sim, store)
        callback, events, progress, _ = collector()
        watch.watch(KEY_MIN, KEY_MAX, v1, callback)
        sim.run()
        assert [e.version for e in events] == [store.last_version]
        assert progress[-1].version == store.last_version

    def test_no_progress_when_caught_up(self, sim):
        store = MVCCStore()
        store.put("a", 1)
        watch = StoreWatch(sim, store)
        callback, events, progress, _ = collector()
        watch.watch(KEY_MIN, KEY_MAX, store.last_version, callback)
        sim.run()
        assert events == []
        assert progress == []

    def test_truncated_history_resyncs(self, sim):
        store = MVCCStore(history_retention_commits=2)
        for i in range(6):
            store.put("a", i)
        watch = StoreWatch(sim, store)
        callback, events, _, resyncs = collector()
        watch.watch(KEY_MIN, KEY_MAX, 1, callback)
        sim.run()
        assert resyncs == [True]
        assert events == []
        assert watch.resyncs_issued == 1


class TestOverIngestionStore:
    def test_watches_appends(self, sim):
        store = IngestionStore()
        watch = StoreWatch(sim, store)
        callback, events, _, _ = collector()
        watch.watch(KEY_MIN, KEY_MAX, 0, callback)
        store.append("sensor/1", {"v": 1})
        sim.run()
        assert events[0].key == "sensor/1"
        assert events[0].mutation.value == {"v": 1}


class TestLifecycle:
    def test_session_close_removes_watcher(self, sim):
        store = MVCCStore()
        watch = StoreWatch(sim, store)
        callback, _, _, _ = collector()
        handle = watch.watch(KEY_MIN, KEY_MAX, 0, callback)
        assert len(watch._sessions) == 1
        handle.cancel()
        assert len(watch._sessions) == 0
