"""Knowledge regions (Figure 5).

"Each blue rectangle represents a knowledge region — a key range and
version window that define the versioned state the watcher knows for
that range."  A watcher that took a snapshot at v0 starts with one
region covering its watch range with window [v0, v0]; each range-scoped
progress event extends the window of the intersected span; pruning old
versions raises the window's low bound.

:class:`KnowledgeMap` maintains a set of non-overlapping regions over a
watcher's range and answers the queries the snapshot stitcher needs:

- is ``(range, version)`` fully known? (serve a snapshot read)
- what versions could serve a snapshot of ``range``? (pick a stitch
  version, possibly across multiple watchers)

Immutability (the property §4.3 calls out — "once a value is written at
a given version, it does not change") is a property of the *data*
(MVCC versions), which is what makes it sound to combine regions across
watchers: any two regions that both know (key, v) know the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro._types import Key, KeyRange, Version


@dataclass(frozen=True)
class KnowledgeRegion:
    """A key range whose state is known at every version in
    ``[low_version, high_version]`` (inclusive window)."""

    key_range: KeyRange
    low_version: Version
    high_version: Version

    def __post_init__(self) -> None:
        if self.low_version > self.high_version:
            raise ValueError(
                f"empty version window [{self.low_version}, {self.high_version}]"
            )

    def knows(self, key_range: KeyRange, version: Version) -> bool:
        return (
            self.key_range.contains_range(key_range)
            and self.low_version <= version <= self.high_version
        )

    def contains_version(self, version: Version) -> bool:
        return self.low_version <= version <= self.high_version

    def __str__(self) -> str:
        return f"{self.key_range}@[v{self.low_version}, v{self.high_version}]"


class KnowledgeMap:
    """Non-overlapping knowledge regions maintained by one watcher."""

    def __init__(self) -> None:
        self._regions: List[KnowledgeRegion] = []

    # ------------------------------------------------------------------
    # construction / mutation

    def reset(self, key_range: KeyRange, version: Version) -> None:
        """Start over from a snapshot: one region, window [version, version].

        Regions outside ``key_range`` are discarded (the watcher only
        re-snapshotted its own range).
        """
        self._regions = [KnowledgeRegion(key_range, version, version)]

    def extend(self, key_range: KeyRange, version: Version) -> None:
        """Apply a progress event: the intersection of existing regions
        with ``key_range`` now extends to ``version``.

        Only *existing* regions are extended — progress for a range the
        watcher has no base snapshot for conveys no usable knowledge
        (there is no floor state to apply events onto).
        """
        new_regions: List[KnowledgeRegion] = []
        for region in self._regions:
            overlap = region.key_range.intersect(key_range)
            if overlap is None or version <= region.high_version:
                new_regions.append(region)
                continue
            for outside in region.key_range.subtract(key_range):
                new_regions.append(
                    KnowledgeRegion(outside, region.low_version, region.high_version)
                )
            new_regions.append(
                KnowledgeRegion(overlap, region.low_version, version)
            )
        self._regions = self._normalize(new_regions)

    @staticmethod
    def _normalize(regions: Iterable[KnowledgeRegion]) -> List[KnowledgeRegion]:
        """Sort by range and merge adjacent regions with equal windows."""
        ordered = sorted(regions, key=lambda r: (r.key_range.low, r.key_range.high))
        merged: List[KnowledgeRegion] = []
        for region in ordered:
            if merged:
                prev = merged[-1]
                if (
                    prev.key_range.high == region.key_range.low
                    and prev.low_version == region.low_version
                    and prev.high_version == region.high_version
                ):
                    merged[-1] = KnowledgeRegion(
                        KeyRange(prev.key_range.low, region.key_range.high),
                        prev.low_version,
                        prev.high_version,
                    )
                    continue
            merged.append(region)
        return merged

    # ------------------------------------------------------------------
    # queries

    @property
    def regions(self) -> Tuple[KnowledgeRegion, ...]:
        return tuple(self._regions)

    def knows(self, key_range: KeyRange, version: Version) -> bool:
        """Can a snapshot of ``key_range`` at ``version`` be served?

        True iff regions containing ``version`` in their window jointly
        cover all of ``key_range``.
        """
        remaining = [key_range]
        for region in self._regions:
            if not region.contains_version(version):
                continue
            next_remaining: List[KeyRange] = []
            for piece in remaining:
                next_remaining.extend(piece.subtract(region.key_range))
            remaining = next_remaining
            if not remaining:
                return True
        return not remaining

    def knows_key(self, key: Key, version: Version) -> bool:
        return self.knows(KeyRange.single(key), version)

    def candidate_versions(self, key_range: KeyRange) -> List[Version]:
        """Window boundaries of regions overlapping ``key_range`` —
        the only versions where coverage can change, so the stitcher
        need only test these."""
        versions: set[Version] = set()
        for region in self._regions:
            if region.key_range.overlaps(key_range):
                versions.add(region.low_version)
                versions.add(region.high_version)
        return sorted(versions)

    def best_snapshot_version(self, key_range: KeyRange) -> Optional[Version]:
        """Newest version at which all of ``key_range`` is known."""
        for version in reversed(self.candidate_versions(key_range)):
            if self.knows(key_range, version):
                return version
        return None

    def max_known_version(self) -> Version:
        """Highest version appearing in any window (0 if empty)."""
        return max((r.high_version for r in self._regions), default=0)


def best_joint_snapshot_version(
    maps: Sequence[KnowledgeMap], key_range: KeyRange
) -> Optional[Version]:
    """Newest version at which the *union* of several watchers' regions
    covers ``key_range`` (Figure 5: "combining knowledge regions across
    multiple watchers to serve snapshot-consistent queries at a broader
    scale")."""
    candidates: set[Version] = set()
    for knowledge in maps:
        candidates.update(knowledge.candidate_versions(key_range))
    for version in sorted(candidates, reverse=True):
        remaining = [key_range]
        for knowledge in maps:
            for region in knowledge.regions:
                if not region.contains_version(version):
                    continue
                next_remaining: List[KeyRange] = []
                for piece in remaining:
                    next_remaining.extend(piece.subtract(region.key_range))
                remaining = next_remaining
                if not remaining:
                    return version
        if not remaining:
            return version
    return None
