"""Tests for knowledge regions (Figure 5) and their algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro._types import KeyRange
from repro.core.knowledge import (
    KnowledgeMap,
    KnowledgeRegion,
    best_joint_snapshot_version,
)


class TestKnowledgeRegion:
    def test_knows(self):
        region = KnowledgeRegion(KeyRange("a", "m"), 5, 10)
        assert region.knows(KeyRange("b", "c"), 7)
        assert not region.knows(KeyRange("b", "c"), 4)
        assert not region.knows(KeyRange("b", "z"), 7)

    def test_window_inclusive(self):
        region = KnowledgeRegion(KeyRange("a", "m"), 5, 10)
        assert region.contains_version(5)
        assert region.contains_version(10)
        assert not region.contains_version(11)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeRegion(KeyRange("a", "b"), 10, 5)


class TestKnowledgeMap:
    def test_reset_single_region(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "z"), 7)
        assert km.knows(KeyRange("a", "z"), 7)
        assert not km.knows(KeyRange("a", "z"), 8)
        assert len(km._regions) == 1

    def test_extend_full_range(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "z"), 5)
        km.extend(KeyRange("a", "z"), 9)
        assert km.knows(KeyRange("a", "z"), 5)
        assert km.knows(KeyRange("a", "z"), 9)
        assert len(km._regions) == 1  # merged, not split

    def test_extend_partial_range_splits(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "z"), 5)
        km.extend(KeyRange("a", "m"), 9)
        assert km.knows(KeyRange("a", "m"), 9)
        assert not km.knows(KeyRange("m", "z"), 9)
        assert km.knows(KeyRange("a", "z"), 5)  # old version still joint
        assert len(km._regions) == 2

    def test_extend_outside_known_is_ignored(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "m"), 5)
        km.extend(KeyRange("m", "z"), 9)
        assert not km.knows(KeyRange("m", "z"), 9)

    def test_extend_backwards_is_noop(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "z"), 5)
        km.extend(KeyRange("a", "z"), 3)
        assert km.regions[0].high_version == 5

    def test_best_snapshot_version(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "z"), 5)
        km.extend(KeyRange("a", "m"), 9)
        km.extend(KeyRange("m", "z"), 7)
        assert km.best_snapshot_version(KeyRange("a", "z")) == 7
        assert km.best_snapshot_version(KeyRange("a", "m")) == 9

    def test_max_known_version(self):
        km = KnowledgeMap()
        assert km.max_known_version() == 0
        km.reset(KeyRange("a", "z"), 5)
        km.extend(KeyRange("a", "c"), 12)
        assert km.max_known_version() == 12

    def test_knows_key(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "m"), 5)
        assert km.knows_key("b", 5)
        assert not km.knows_key("x", 5)

    def test_adjacent_equal_windows_merge(self):
        km = KnowledgeMap()
        km.reset(KeyRange("a", "z"), 5)
        km.extend(KeyRange("a", "m"), 9)
        km.extend(KeyRange("m", "z"), 9)
        assert len(km.regions) == 1


class TestJointStitching:
    def test_union_across_maps(self):
        km1 = KnowledgeMap()
        km1.reset(KeyRange("a", "m"), 5)
        km1.extend(KeyRange("a", "m"), 10)
        km2 = KnowledgeMap()
        km2.reset(KeyRange("m", "z"), 5)
        km2.extend(KeyRange("m", "z"), 8)
        v = best_joint_snapshot_version([km1, km2], KeyRange("a", "z"))
        assert v == 8  # the newest version both cover

    def test_gap_unservable(self):
        km1 = KnowledgeMap()
        km1.reset(KeyRange("a", "g"), 5)
        km2 = KnowledgeMap()
        km2.reset(KeyRange("m", "z"), 5)
        assert best_joint_snapshot_version([km1, km2], KeyRange("a", "z")) is None

    def test_disjoint_windows_unservable(self):
        km1 = KnowledgeMap()
        km1.reset(KeyRange("a", "m"), 5)  # [5,5]
        km2 = KnowledgeMap()
        km2.reset(KeyRange("m", "z"), 9)  # [9,9]
        assert best_joint_snapshot_version([km1, km2], KeyRange("a", "z")) is None

    def test_overlapping_watchers_redundancy(self):
        """§4.3: overlapping regions improve availability — losing one
        watcher keeps the range servable."""
        km1 = KnowledgeMap()
        km1.reset(KeyRange("a", "p"), 5)
        km2 = KnowledgeMap()
        km2.reset(KeyRange("g", "z"), 5)
        assert best_joint_snapshot_version([km1, km2], KeyRange("a", "z")) == 5
        assert best_joint_snapshot_version([km2], KeyRange("a", "z")) is None


# ---------------------------------------------------------------------------
# property tests

ranges = st.tuples(
    st.sampled_from("abcdefghijklm"), st.sampled_from("nopqrstuvwxyz")
).map(lambda p: KeyRange(p[0], p[1]))


class TestKnowledgeProperties:
    @settings(max_examples=80)
    @given(
        base=ranges,
        base_version=st.integers(1, 20),
        extensions=st.lists(
            st.tuples(ranges, st.integers(1, 40)), max_size=10
        ),
    )
    def test_knows_implies_region_coverage(self, base, base_version, extensions):
        """If the map claims to know (range, v), regions containing v
        really cover the range."""
        km = KnowledgeMap()
        km.reset(base, base_version)
        for ext_range, version in extensions:
            km.extend(ext_range, version)
        for probe_version in {base_version, *[v for _, v in extensions]}:
            if km.knows(base, probe_version):
                covering = [
                    r.key_range for r in km.regions
                    if r.contains_version(probe_version)
                ]
                from repro._types import ranges_cover

                assert ranges_cover(covering, base)

    @settings(max_examples=80)
    @given(
        base=ranges,
        extensions=st.lists(st.tuples(ranges, st.integers(1, 40)), max_size=8),
    )
    def test_regions_never_overlap(self, base, extensions):
        km = KnowledgeMap()
        km.reset(base, 1)
        for ext_range, version in extensions:
            km.extend(ext_range, version)
        regions = km.regions
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert not a.key_range.overlaps(b.key_range)

    @settings(max_examples=80)
    @given(
        base=ranges,
        extensions=st.lists(st.tuples(ranges, st.integers(1, 40)), max_size=8),
    )
    def test_base_snapshot_version_always_known(self, base, extensions):
        """Extensions never lose the base snapshot's joint version."""
        km = KnowledgeMap()
        km.reset(base, 1)
        for ext_range, version in extensions:
            km.extend(ext_range, version)
        assert km.knows(base, 1)
