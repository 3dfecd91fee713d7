"""Tests for the ingestion (time-series) store."""

import pytest

from repro._types import KeyRange
from repro.storage.timeseries import IngestionStore


class TestAppend:
    def test_append_assigns_versions(self):
        s = IngestionStore()
        e1 = s.append("sensor/1", {"v": 1})
        e2 = s.append("sensor/2", {"v": 2})
        assert e2.version > e1.version
        assert len(s) == 2

    def test_explicit_time(self):
        s = IngestionStore()
        e = s.append("s", "x", time=42.0)
        assert e.time == 42.0

    def test_history_mirrors_events(self):
        s = IngestionStore()
        e = s.append("s", "payload")
        commits = s.history.commits()
        assert len(commits) == 1
        assert commits[0].version == e.version
        assert commits[0].writes[0][0] == "s"


class TestQueries:
    def test_latest(self):
        s = IngestionStore()
        s.append("a", 1)
        s.append("a", 2)
        assert s.latest("a").payload == 2
        assert s.latest("nope") is None

    def test_scan_series_range(self):
        s = IngestionStore()
        for series in ["alpha", "beta", "gamma"]:
            s.append(series, 1)
        assert s.scan_series(KeyRange("a", "c")) == ["alpha", "beta"]

    def test_scan_series_sorted_across_interleaved_appends(self):
        """New series arriving out of key order, with reads between the
        appends, are listed once each and in key order."""
        s = IngestionStore()
        seen = []
        for series in ["m", "c", "x", "c", "a", "m", "b"]:
            s.append(series, 1)
            seen.append(s.scan_series())
        assert seen[2] == ["c", "m", "x"]
        assert seen[-1] == ["a", "b", "c", "m", "x"]
        assert s.scan_series(KeyRange("b", "n")) == ["b", "c", "m"]
        assert s.snapshot_latest(KeyRange("b", "n")) == {"b": 1, "c": 1, "m": 1}

    def test_window(self):
        s = IngestionStore()
        s.append("a", 1, time=1.0)
        s.append("a", 2, time=5.0)
        s.append("a", 3, time=9.0)
        assert [e.payload for e in s.window(2.0, 9.0)] == [2]
        assert [e.payload for e in s.window(0.0, 100.0)] == [1, 2, 3]

    def test_snapshot_latest(self):
        s = IngestionStore()
        s.append("a", 1)
        s.append("b", 2)
        s.append("a", 3)
        assert s.snapshot_latest() == {"a": 3, "b": 2}
        assert s.snapshot_latest(KeyRange("b", "c")) == {"b": 2}


class TestRetention:
    def test_bytes_written_accounting(self):
        s = IngestionStore()
        s.append("a", "payload")
        assert s.bytes_written > 0
