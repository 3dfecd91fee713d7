"""Exactly-mergeable fixed-bucket histograms for shard-parallel runs.

The fleet runner (:mod:`repro.fleet`) executes simulation shards in
separate worker processes and must merge their latency distributions
into ONE deterministic report.  The exact-value
:class:`~repro.sim.metrics.Histogram` cannot do that cheaply — shipping
every sample across the process boundary defeats the point of sharding
— and *approximate* mergeable sketches (t-digest, DDSketch) trade away
the bit-for-bit reproducibility every experiment here guarantees.

:class:`MergeHist` takes the boring-but-exact road: all shards share
the SAME fixed bucket edges, so a merge is integer vector addition —
associative, commutative, and bit-identical regardless of worker
count, completion order, or host.  Quantiles are read as the upper
edge of the covering bucket (a deterministic upper bound with relative
error bounded by the edge spacing), never interpolated from floats
whose summation order could differ between runs.

The state is four ``__slots__`` (edges, counts, overflow, count), so a
shard's histogram pickles small across the fleet's process boundary
and a report serializes it to JSON field by field.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

__all__ = ["MergeHist", "latency_edges"]


def latency_edges(
    low: float = 1e-4, high: float = 100.0, per_decade: int = 20
) -> Tuple[float, ...]:
    """Log-spaced bucket edges for latencies in seconds.

    ``per_decade=20`` keeps the quantile upper-bound error under ~12%
    (one bucket width, 10^(1/20) ≈ 1.122x) across 0.1ms..100s.  Edges
    are computed from integer exponents so every process derives the
    exact same floats.
    """
    if low <= 0 or high <= low or per_decade < 1:
        raise ValueError("need 0 < low < high and per_decade >= 1")
    edges: List[float] = []
    idx = 0
    while True:
        edge = low * 10.0 ** (idx / per_decade)
        edges.append(edge)
        if edge >= high:
            break
        idx += 1
    return tuple(edges)


class MergeHist:
    """Fixed-bucket histogram with exact (integer) merging.

    Bucket ``i`` counts values ``v`` with ``edges[i-1] < v <= edges[i]``
    (bucket 0: ``v <= edges[0]``); one overflow bucket counts
    ``v > edges[-1]``.  Two histograms merge iff their edges are the
    identical tuple.
    """

    __slots__ = ("edges", "counts", "overflow", "count")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(edges)
        if not edges or any(
            b <= a for a, b in zip(edges, edges[1:])
        ):
            raise ValueError("edges must be non-empty and strictly increasing")
        self.edges = edges
        self.counts = [0] * len(edges)
        self.overflow = 0
        self.count = 0

    @classmethod
    def for_latency(cls) -> "MergeHist":
        return cls(latency_edges())

    # ------------------------------------------------------------------
    # recording / merging

    def record(self, value: float) -> None:
        edges = self.edges
        if value > edges[-1]:
            self.overflow += 1
        else:
            self.counts[bisect_left(edges, value)] += 1
        self.count += 1

    def merge(self, other: "MergeHist") -> None:
        """Fold ``other`` into this histogram (edges must match exactly)."""
        if other.edges != self.edges:
            raise ValueError(
                "cannot merge MergeHists with different bucket edges"
            )
        counts = self.counts
        for idx, n in enumerate(other.counts):
            counts[idx] += n
        self.overflow += other.overflow
        self.count += other.count

    # ------------------------------------------------------------------
    # reads

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket covering the q-quantile.

        Deterministic for any merge order: depends only on the summed
        integer counts.  Returns 0.0 when empty; the overflow bucket
        reports the top edge (the histogram's representable ceiling).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        # 1-based rank of the q-quantile (nearest-rank definition over
        # integers only — no float summation anywhere)
        rank = max(1, int(q * (self.count - 1)) + 1)
        seen = 0
        for idx, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.edges[idx]
        return self.edges[-1]

    # ------------------------------------------------------------------
    # state (pickling across the fleet's process boundary / JSON)

    def __repr__(self) -> str:
        return (
            f"MergeHist(count={self.count}, buckets={len(self.edges)}, "
            f"overflow={self.overflow})"
        )
