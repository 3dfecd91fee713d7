"""Tests for the MVCC store: versioned reads, scans, snapshots."""

import pytest
from hypothesis import given, settings, strategies as st

from repro._types import KeyRange, Mutation
from repro.storage.errors import StorageError
from repro.storage.kv import MVCCStore


class TestBasicOps:
    def test_put_get(self):
        s = MVCCStore()
        s.put("a", 1)
        assert s.get("a") == 1

    def test_get_missing(self):
        assert MVCCStore().get("nope") is None

    def test_delete(self):
        s = MVCCStore()
        s.put("a", 1)
        s.delete("a")
        assert s.get("a") is None
        assert not s.exists("a")

    def test_overwrite(self):
        s = MVCCStore()
        s.put("a", 1)
        s.put("a", 2)
        assert s.get("a") == 2

    def test_empty_commit_rejected(self):
        with pytest.raises(StorageError):
            MVCCStore().commit({})

    def test_commit_returns_monotonic_versions(self):
        s = MVCCStore()
        versions = [s.put("k", i) for i in range(10)]
        assert versions == sorted(versions)

    def test_multi_key_commit_atomic_version(self):
        s = MVCCStore()
        v = s.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
        assert s.get_versioned("a") == (v, 1)
        assert s.get_versioned("b") == (v, 2)


class TestVersionedReads:
    def test_read_at_old_version(self):
        s = MVCCStore()
        v1 = s.put("a", 1)
        v2 = s.put("a", 2)
        assert s.get("a", v1) == 1
        assert s.get("a", v2) == 2

    def test_read_before_creation(self):
        s = MVCCStore()
        s.put("pre", 0)
        v0 = s.last_version
        s.put("a", 1)
        assert s.get("a", v0) is None

    def test_delete_visible_at_later_versions_only(self):
        s = MVCCStore()
        v1 = s.put("a", 1)
        v2 = s.delete("a")
        assert s.get("a", v1) == 1
        assert s.get("a", v2) is None

    def test_get_versioned(self):
        s = MVCCStore()
        v1 = s.put("a", "x")
        assert s.get_versioned("a") == (v1, "x")
        s.delete("a")
        assert s.get_versioned("a") is None


class TestScan:
    def test_scan_ordered(self):
        s = MVCCStore()
        for k in ["c", "a", "b"]:
            s.put(k, k.upper())
        assert list(s.scan()) == [("a", "A"), ("b", "B"), ("c", "C")]

    def test_scan_range(self):
        s = MVCCStore()
        for k in ["a", "b", "c", "d"]:
            s.put(k, 1)
        assert [k for k, _ in s.scan(KeyRange("b", "d"))] == ["b", "c"]

    def test_scan_at_version(self):
        s = MVCCStore()
        v1 = s.put("a", 1)
        s.put("b", 2)
        assert dict(s.scan(version=v1)) == {"a": 1}

    def test_scan_skips_deleted(self):
        s = MVCCStore()
        s.put("a", 1)
        s.put("b", 2)
        s.delete("a")
        assert dict(s.scan()) == {"b": 2}

    def test_count(self):
        s = MVCCStore()
        s.put("a", 1)
        s.put("b", 2)
        snap = s.snapshot()
        assert len(snap.items()) == 2
        assert len(snap.items(KeyRange("a", "b"))) == 1

    def test_keys_includes_deleted(self):
        s = MVCCStore()
        s.put("a", 1)
        s.delete("a")
        assert s.keys() == ["a"]


class TestSnapshots:
    def test_snapshot_immutable_under_writes(self):
        s = MVCCStore()
        s.put("a", 1)
        snap = s.snapshot()
        s.put("a", 2)
        s.put("b", 3)
        s.delete("a")
        assert snap.items().get("a") == 1
        assert snap.items().get("b") is None
        assert snap.items() == {"a": 1}

    def test_snapshot_version_pinned(self):
        s = MVCCStore()
        v = s.put("a", 1)
        snap = s.snapshot(v)
        assert snap.version == v
        assert len(snap.items()) == 1


class TestAccounting:
    def test_bytes_written_grows(self):
        s = MVCCStore()
        s.put("a", "value")
        before = s.bytes_written
        s.put("b", "another")
        assert s.bytes_written > before

    def test_commit_count(self):
        s = MVCCStore()
        s.put("a", 1)
        s.commit({"b": Mutation.put(2), "c": Mutation.put(3)})
        assert s.commit_count == 2

    def test_history_mirrors_commits(self):
        s = MVCCStore()
        v1 = s.put("a", 1)
        v2 = s.commit({"b": Mutation.put(2)})
        assert [c.version for c in s.history.commits()] == [v1, v2]


# ---------------------------------------------------------------------------
# property tests: the MVCC invariants from DESIGN.md §5


ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=60,
)


class TestMVCCProperties:
    @settings(max_examples=60)
    @given(ops)
    def test_snapshot_reads_equal_history_replay(self, operations):
        """A scan at version v equals replaying the history up to v."""
        s = MVCCStore()
        versions = []
        for op, key, value in operations:
            if op == "put":
                versions.append(s.put(key, value))
            else:
                versions.append(s.delete(key))
        # pick a few checkpoints including the extremes
        checkpoints = {versions[0], versions[-1], versions[len(versions) // 2]}
        for v in checkpoints:
            replayed = {}
            for commit in s.history.commits():
                if commit.version > v:
                    break
                for key, mutation in commit.writes:
                    if mutation.is_delete:
                        replayed.pop(key, None)
                    else:
                        replayed[key] = mutation.value
            assert dict(s.scan(version=v)) == replayed

    @settings(max_examples=60)
    @given(ops)
    def test_snapshot_immutability(self, operations):
        """Materialized snapshot contents never change under writes."""
        s = MVCCStore()
        mid = len(operations) // 2
        for op, key, value in operations[:mid] or [("put", "a", 0)]:
            if op == "put":
                s.put(key, value)
            else:
                s.delete(key)
        snap = s.snapshot()
        frozen = snap.items()
        for op, key, value in operations[mid:]:
            if op == "put":
                s.put(key, value)
            else:
                s.delete(key)
        assert snap.items() == frozen

    @settings(max_examples=60)
    @given(ops)
    def test_latest_equals_last_write_per_key(self, operations):
        s = MVCCStore()
        expected = {}
        for op, key, value in operations:
            if op == "put":
                s.put(key, value)
                expected[key] = value
            else:
                s.delete(key)
                expected.pop(key, None)
        assert dict(s.scan()) == expected
