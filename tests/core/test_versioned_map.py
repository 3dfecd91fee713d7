"""Tests for the versioned map under the store and every watch client."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro._types import KeyRange, Mutation
from repro.storage.versioned_map import VersionedMap


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


#: one apply: (key, version or None for "just above the key's newest",
#: is_delete, value)
_applies = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.none() | st.integers(1, 12),
        st.booleans(),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=40,
)


class TestDifferential:
    @settings(max_examples=200)
    @given(_applies)
    # an equal-version re-apply after a newer version must replace in
    # place, not be appended at the tail
    @example([("a", 5, False, 1), ("a", 9, False, 2), ("a", 5, False, 3)])
    @example([("a", 3, False, 1), ("a", 3, True, 0), ("a", None, False, 2)])
    def test_matches_a_sorted_list_reference(self, applies):
        """In-order, duplicate and out-of-order applies, deletes
        included: every read at every version equals a per-key sorted
        list of the last mutation applied at each version."""
        vm = VersionedMap()
        reference = {}  # key -> {version: mutation}
        for key, version, is_delete, value in applies:
            if version is None:
                version = max(reference.get(key, {0: None})) + 1
            mutation = Mutation.delete() if is_delete else Mutation.put(value)
            vm.apply(key, mutation, version)
            reference.setdefault(key, {})[version] = mutation

        def visible(key, version):
            chain = sorted(reference.get(key, {}).items())
            below = [(v, m) for v, m in chain if v <= version]
            if not below or below[-1][1].is_delete:
                return None
            return below[-1][0], below[-1][1].value

        top = max(max(chain) for chain in reference.values())
        for version in range(top + 2):
            for key in ("a", "b", "c", "d"):
                expected = visible(key, version)
                assert vm.get_versioned_at(key, version) == expected
                assert vm.get_at(key, version) == (
                    None if expected is None else expected[1]
                )
            for key_range in (KeyRange.all(), KeyRange("b", "c")):
                expected_items = {
                    key: visible(key, version)[1]
                    for key in sorted(reference)
                    if key_range.contains(key) and visible(key, version)
                }
                # equal in key order too
                assert list(vm.items_at(key_range, version).items()) == list(
                    expected_items.items()
                )
        for key in ("a", "b", "c", "d"):
            chain = reference.get(key)
            assert vm.latest_version(key) == (max(chain) if chain else None)
            assert vm._versions.get(key, []) == sorted(chain or [])
