"""Tests for key-range assignments."""

import pytest
from hypothesis import given, strategies as st

from repro._types import KEY_MAX, KEY_MIN, KeyRange
from repro.sharding.assignment import Assignment, Slice


class TestValidation:
    def test_single_covers_all(self):
        a = Assignment.single("n1")
        assert a.owner_of("") == "n1"
        assert a.owner_of("zzz") == "n1"

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            Assignment(0, [
                Slice(KeyRange(KEY_MIN, "m"), "a"),
                Slice(KeyRange("n", KEY_MAX), "b"),  # gap [m, n)
            ])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Assignment(0, [
                Slice(KeyRange(KEY_MIN, "n"), "a"),
                Slice(KeyRange("m", KEY_MAX), "b"),
            ])

    def test_missing_prefix_rejected(self):
        with pytest.raises(ValueError):
            Assignment(0, [Slice(KeyRange("a", KEY_MAX), "n")])

    def test_missing_suffix_rejected(self):
        with pytest.raises(ValueError):
            Assignment(0, [Slice(KeyRange(KEY_MIN, "z"), "n")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Assignment(0, [])


class TestQueries:
    def test_even_assignment(self):
        a = Assignment.even(["n1", "n2"], ["m"])
        assert a.owner_of("a") == "n1"
        assert a.owner_of("q") == "n2"
        assert len(a.slices) == 2

    def test_slice_for_boundary(self):
        a = Assignment.even(["n1", "n2"], ["m"])
        assert a.slice_for("m").node == "n2"  # boundary belongs to right

    def test_ranges_of(self):
        a = Assignment.even(["n1", "n2"], ["g", "p"])
        # round robin: n1 gets slices 0, 2; n2 gets slice 1
        assert a.ranges_of("n1") == [KeyRange(KEY_MIN, "g"), KeyRange("p", KEY_MAX)]
        assert a.ranges_of("n2") == [KeyRange("g", "p")]
        assert a.ranges_of("ghost") == []

    def test_nodes(self):
        a = Assignment.even(["n2", "n1"], ["m"])
        assert a.nodes() == ["n1", "n2"]

    @given(st.text(alphabet="abcxyz", max_size=5))
    def test_every_key_has_exactly_one_owner(self, key):
        a = Assignment.even(["n1", "n2", "n3"], ["g", "p"])
        owning = [s for s in a.slices if s.key_range.contains(key)]
        assert len(owning) == 1
        assert a.owner_of(key) == owning[0].node
