"""Tests for the commit history: ordering, retention, tailing."""

import pytest
from hypothesis import given, strategies as st

from repro._types import KeyRange, Mutation
from repro.storage.errors import HistoryTruncatedError
from repro.storage.history import ChangeHistory, CommittedTransaction


def commit(version, *keys):
    return CommittedTransaction(
        version=version,
        writes=tuple((k, Mutation.put(version)) for k in keys),
    )


class TestAppend:
    def test_appends_in_order(self):
        h = ChangeHistory()
        h.append(commit(1, "a"))
        h.append(commit(3, "b"))
        assert h.last_version == 3
        assert len(h._commits) == 2

    def test_out_of_order_rejected(self):
        h = ChangeHistory()
        h.append(commit(5, "a"))
        with pytest.raises(ValueError):
            h.append(commit(5, "b"))
        with pytest.raises(ValueError):
            h.append(commit(4, "b"))

    def test_commit_touches(self):
        c = commit(1, "apple", "mango")
        assert c.touches(KeyRange("a", "b"))
        assert not c.touches(KeyRange("x", "z"))


class TestSince:
    def test_since_returns_newer(self):
        h = ChangeHistory()
        for v in (1, 3, 5):
            h.append(commit(v, "k"))
        assert [c.version for c in h.since(1)] == [3, 5]
        assert [c.version for c in h.since(0)] == [1, 3, 5]
        assert list(h.since(5)) == []

    def test_since_between_versions(self):
        h = ChangeHistory()
        for v in (10, 20):
            h.append(commit(v, "k"))
        assert [c.version for c in h.since(15)] == [20]


class TestRetention:
    def test_truncates_on_append(self):
        h = ChangeHistory(retention_commits=2)
        for v in (1, 2, 3, 4):
            h.append(commit(v, "k"))
        assert len(h._commits) == 2
        assert h.oldest_retained == 3
        assert h._truncated_max == 2

    def test_replay_from_truncated_raises(self):
        h = ChangeHistory(retention_commits=2)
        for v in (1, 2, 3, 4):
            h.append(commit(v, "k"))
        with pytest.raises(HistoryTruncatedError):
            h.since(1)
        # boundary: replay from the truncation point is fine
        assert [c.version for c in h.since(2)] == [3, 4]

    def test_can_replay_from(self):
        h = ChangeHistory(retention_commits=1)
        h.append(commit(1, "k"))
        h.append(commit(2, "k"))
        assert not h.can_replay_from(0)
        assert h.can_replay_from(1)
        assert h.can_replay_from(2)

    def test_truncate_before_explicit(self):
        h = ChangeHistory()
        for v in (1, 2, 3):
            h.append(commit(v, "k"))
        dropped = h.truncate_before(3)
        assert dropped == 2
        assert h.oldest_retained == 3
        assert h._truncated_max == 2

    def test_append_below_truncation_rejected(self):
        h = ChangeHistory(retention_commits=1)
        h.append(commit(5, "k"))
        h.append(commit(6, "k"))
        with pytest.raises(ValueError):
            h.append(commit(5, "k"))

    def test_invalid_retention(self):
        with pytest.raises(ValueError):
            ChangeHistory(retention_commits=0)

    def test_sparse_versions_truncation_is_exact(self):
        """Versions are sparse: the replay-safety boundary must be the
        max truncated version, not oldest_retained-1."""
        h = ChangeHistory(retention_commits=2)
        for v in (10, 50, 100, 200):
            h.append(commit(v, "k"))
        # commits 10 and 50 truncated; replay from 50 is safe
        assert h.can_replay_from(50)
        assert not h.can_replay_from(49)
        assert not h.can_replay_from(11)


class TestTailing:
    def test_tail_receives_future_commits(self):
        h = ChangeHistory()
        seen = []
        cancel = h.tail(lambda c: seen.append(c.version))
        h.append(commit(1, "k"))
        h.append(commit(2, "k"))
        cancel()
        h.append(commit(3, "k"))
        assert seen == [1, 2]

    def test_multiple_tailers(self):
        h = ChangeHistory()
        a, b = [], []
        h.tail(lambda c: a.append(c.version))
        h.tail(lambda c: b.append(c.version))
        h.append(commit(1, "k"))
        assert a == b == [1]
        assert len(h._tailers) == 2

    def test_cancel_idempotent(self):
        h = ChangeHistory()
        cancel = h.tail(lambda c: None)
        cancel()
        cancel()
        assert len(h._tailers) == 0


class TestHistoryProperties:
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                    max_size=30, unique=True))
    def test_since_partitions_history(self, raw_versions):
        versions = sorted(raw_versions)
        h = ChangeHistory()
        for v in versions:
            h.append(commit(v, "k"))
        for boundary in range(0, 32):
            newer = [c.version for c in h.since(boundary)]
            assert newer == [v for v in versions if v > boundary]

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=40))
    def test_retention_bounds_length(self, retention, n):
        h = ChangeHistory(retention_commits=retention)
        for v in range(1, n + 1):
            h.append(commit(v, "k"))
        assert len(h._commits) == min(retention, n)
        # retained commits are exactly the newest ones
        assert [c.version for c in h.commits()] == list(
            range(max(1, n - retention + 1), n + 1)
        )
