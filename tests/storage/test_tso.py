"""Tests for the timestamp oracle."""

from repro.storage.tso import TimestampOracle


class TestTimestampOracle:
    def test_strictly_increasing(self):
        tso = TimestampOracle()
        versions = [tso.next() for _ in range(100)]
        assert versions == sorted(versions)
        assert len(set(versions)) == 100

    def test_starts_after_zero(self):
        tso = TimestampOracle()
        assert tso.last == 0
        assert tso.next() == 1

    def test_shared_oracle_orders_across_stores(self):
        from repro.storage.kv import MVCCStore

        tso = TimestampOracle()
        a = MVCCStore(tso=tso, name="a")
        b = MVCCStore(tso=tso, name="b")
        v1 = a.put("x", 1)
        v2 = b.put("y", 2)
        v3 = a.put("x", 3)
        assert v1 < v2 < v3
