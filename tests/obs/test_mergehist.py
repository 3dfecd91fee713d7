"""MergeHist: exact merging is what makes fleet reports deterministic.

The fleet runner (repro.fleet) merges per-shard latency histograms
into one report; the whole byte-identity contract rests on merge being
integer vector addition over identical edges.  These tests pin that:
merge-of-splits equals record-everything, merge order is irrelevant,
quantiles read the upper covering edge, and mismatched edges refuse.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.obs.mergehist import MergeHist, latency_edges


def test_bucketing_boundaries():
    hist = MergeHist((1.0, 2.0, 4.0))
    for value in (0.5, 1.0):  # bucket 0: v <= edges[0]
        hist.record(value)
    hist.record(1.5)  # bucket 1: 1 < v <= 2
    hist.record(2.0)  # still bucket 1 (upper-inclusive)
    hist.record(4.0)  # bucket 2
    hist.record(4.1)  # overflow
    assert hist.counts == [2, 2, 1]
    assert hist.overflow == 1
    assert hist.count == 6


def test_merge_of_splits_equals_whole():
    """Split a sample stream across 4 'shards' any which way: the merge
    is bit-identical to one histogram that saw everything."""
    rng = random.Random(1701)
    samples = [rng.expovariate(10.0) for _ in range(5_000)]
    whole = MergeHist.for_latency()
    for value in samples:
        whole.record(value)
    shards = [MergeHist.for_latency() for _ in range(4)]
    for i, value in enumerate(samples):
        shards[i % 4].record(value)
    # merge in a scrambled order — addition is commutative
    merged = MergeHist.for_latency()
    for shard in (shards[2], shards[0], shards[3], shards[1]):
        merged.merge(shard)
    assert merged.counts == whole.counts
    assert merged.overflow == whole.overflow
    assert merged.count == whole.count
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert merged.quantile(q) == whole.quantile(q)


def test_quantile_is_upper_covering_edge():
    hist = MergeHist((1.0, 2.0, 4.0, 8.0))
    for _ in range(99):
        hist.record(1.5)  # bucket 1 -> upper edge 2.0
    hist.record(5.0)  # bucket 3 -> upper edge 8.0
    assert hist.quantile(0.5) == 2.0
    assert hist.quantile(0.99) == 2.0
    assert hist.quantile(1.0) == 8.0
    assert MergeHist((1.0,)).quantile(0.5) == 0.0  # empty -> 0.0
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_overflow_reports_top_edge():
    hist = MergeHist((1.0, 2.0))
    hist.record(100.0)
    assert hist.quantile(0.5) == 2.0


def test_mismatched_edges_refuse_to_merge():
    with pytest.raises(ValueError):
        MergeHist((1.0, 2.0)).merge(MergeHist((1.0, 3.0)))


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        MergeHist(())
    with pytest.raises(ValueError):
        MergeHist((1.0, 1.0))
    with pytest.raises(ValueError):
        latency_edges(low=0.0)


def test_latency_edges_identical_across_derivations():
    """Every process derives the exact same floats (integer exponents,
    no accumulated multiplication)."""
    a = latency_edges()
    b = latency_edges()
    assert a == b
    assert a[0] == 1e-4 and a[-1] >= 100.0
    assert all(x < y for x, y in zip(a, a[1:]))


def test_state_roundtrip_and_pickle():
    hist = MergeHist.for_latency()
    for value in (0.001, 0.01, 0.5, 200.0):
        hist.record(value)
    wired = pickle.loads(pickle.dumps(hist))  # the fleet's boundary
    assert wired.edges == hist.edges and wired.counts == hist.counts
    assert wired.overflow == hist.overflow and wired.count == hist.count
