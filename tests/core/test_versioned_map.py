"""Tests for the client-side MVCC map."""

import pytest
from hypothesis import given, settings, strategies as st

from repro._types import KeyRange, Mutation
from repro.core.versioned_map import VersionedMap


class TestApply:
    def test_basic_apply_get(self):
        vm = VersionedMap()
        vm.apply("a", Mutation.put(1), 5)
        assert vm.get_latest("a") == 1
        assert vm.get_at("a", 5) == 1
        assert vm.get_at("a", 4) is None

    def test_idempotent_reapply(self):
        vm = VersionedMap()
        vm.apply("a", Mutation.put(1), 5)
        vm.apply("a", Mutation.put(1), 5)
        assert len(vm._versions["a"]) == 1

    def test_out_of_order_insert(self):
        vm = VersionedMap()
        vm.apply("a", Mutation.put("late"), 10)
        vm.apply("a", Mutation.put("early"), 5)
        assert vm.get_at("a", 7) == "early"
        assert vm.get_at("a", 10) == "late"
        assert vm.get_latest("a") == "late"

    def test_delete_tombstone(self):
        vm = VersionedMap()
        vm.apply("a", Mutation.put(1), 5)
        vm.apply("a", Mutation.delete(), 8)
        assert vm.get_latest("a") is None
        assert vm.get_at("a", 6) == 1
        assert vm.get_at("a", 8) is None
        assert "a" in vm._versions

    def test_latest_version(self):
        vm = VersionedMap()
        assert vm.latest_version("a") is None
        vm.apply("a", Mutation.put(1), 3)
        vm.apply("a", Mutation.put(2), 9)
        assert vm.latest_version("a") == 9


class TestSnapshotLoad:
    def test_load_replaces_everything(self):
        vm = VersionedMap()
        vm.apply("old", Mutation.put(1), 2)
        vm.load_snapshot({"a": 10, "b": 20}, version=5)
        assert vm.get_latest("old") is None
        assert vm.get_at("a", 5) == 10
        assert sorted(vm._versions) == ["a", "b"]

    def test_items_at_and_latest(self):
        vm = VersionedMap()
        vm.load_snapshot({"a": 1, "b": 2, "c": 3}, version=5)
        vm.apply("b", Mutation.put(99), 7)
        vm.apply("c", Mutation.delete(), 8)
        assert vm.items_at(KeyRange.all(), 5) == {"a": 1, "b": 2, "c": 3}
        assert vm.items_latest() == {"a": 1, "b": 99}
        assert vm.items_at(KeyRange("a", "c"), 7) == {"a": 1, "b": 99}


class TestProperties:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.booleans(),
                st.integers(1, 50),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda t: (t[0], t[2]),
        )
    )
    def test_get_at_matches_sorted_replay(self, writes):
        """get_at(k, v) equals the latest write to k with version <= v,
        regardless of apply order."""
        vm = VersionedMap()
        for key, is_delete, version in writes:
            mutation = Mutation.delete() if is_delete else Mutation.put(version)
            vm.apply(key, mutation, version)
        by_key = {}
        for key, is_delete, version in writes:
            by_key.setdefault(key, []).append((version, is_delete))
        for key, entries in by_key.items():
            entries.sort()
            for probe in (1, 10, 25, 50):
                visible = [e for e in entries if e[0] <= probe]
                if not visible:
                    assert vm.get_at(key, probe) is None
                else:
                    version, is_delete = visible[-1]
                    expected = None if is_delete else version
                    assert vm.get_at(key, probe) == expected

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(),
            min_size=1,
        ),
        st.integers(1, 20),
    )
    def test_snapshot_roundtrip(self, items, version):
        vm = VersionedMap()
        vm.load_snapshot(items, version)
        assert vm.items_at(KeyRange.all(), version) == items
        assert vm.items_latest() == items
