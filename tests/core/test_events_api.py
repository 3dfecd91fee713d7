"""Tests for watch events and the callback adapter."""

import pytest

from repro._types import KeyRange, Mutation
from repro.core.api import FnWatchCallback
from repro.core.events import ChangeEvent, ProgressEvent


class TestChangeEvent:
    def test_fields(self):
        e = ChangeEvent("k", Mutation.put(5), 7)
        assert (e.key, e.version) == ("k", 7)
        assert e.mutation.value == 5

    def test_size_positive(self):
        assert ChangeEvent("k", Mutation.put("v"), 1).size() > 0

    def test_frozen(self):
        e = ChangeEvent("k", Mutation.put(5), 7)
        with pytest.raises(AttributeError):
            e.version = 8  # type: ignore[misc]


class TestProgressEvent:
    def test_key_range_view(self):
        p = ProgressEvent("a", "m", 9)
        assert p.key_range == KeyRange("a", "m")


class TestFnWatchCallback:
    def test_defaults_are_noops(self):
        cb = FnWatchCallback()
        cb.on_event(ChangeEvent("k", Mutation.put(1), 1))
        cb.on_progress(ProgressEvent("a", "b", 1))
        cb.on_resync()

    def test_dispatch(self):
        events, progress, resyncs = [], [], []
        cb = FnWatchCallback(
            on_event=events.append,
            on_progress=progress.append,
            on_resync=lambda: resyncs.append(True),
        )
        cb.on_event(ChangeEvent("k", Mutation.put(1), 1))
        cb.on_progress(ProgressEvent("a", "b", 1))
        cb.on_resync()
        assert len(events) == len(progress) == len(resyncs) == 1
