"""Tests for snapshot views."""

import pytest

from repro._types import KeyRange
from repro.storage.kv import MVCCStore


class TestSnapshotView:
    def test_scan_and_items(self):
        store = MVCCStore()
        store.put("a", 1)
        store.put("b", 2)
        snap = store.snapshot()
        store.put("c", 3)
        assert list(snap.scan()) == [("a", 1), ("b", 2)]
        assert snap.items(KeyRange("a", "b")) == {"a": 1}
        assert len(snap.items()) == 2

    def test_version_attribute(self):
        store = MVCCStore()
        v1 = store.put("a", 1)
        store.put("a", 2)
        snap = store.snapshot(v1)
        assert snap.version == v1
        assert snap.items().get("a") == 1


class TestErrorTypes:
    def test_storage_errors_carry_context(self):
        from repro.storage.errors import ConflictError, HistoryTruncatedError

        conflict = ConflictError("k", 5, 9)
        assert conflict.key == "k"
        assert "v5" in str(conflict) and "v9" in str(conflict)
        truncated = HistoryTruncatedError(3, 10)
        assert truncated.requested_version == 3
        assert truncated.oldest_retained == 10

    def test_pubsub_errors_carry_context(self):
        from repro.pubsub.errors import OffsetOutOfRangeError, UnknownTopicError

        offset_error = OffsetOutOfRangeError(2, 7)
        assert offset_error.requested == 2 and offset_error.floor == 7
        topic_error = UnknownTopicError("ghost")
        assert topic_error.topic == "ghost"
