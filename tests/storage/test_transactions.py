"""Tests for optimistic transactions: snapshots, conflicts, atomicity."""

import pytest

from repro.storage.errors import ConflictError, StorageError
from repro.storage.kv import MVCCStore


class TestReadYourWrites:
    def test_buffered_write_visible(self):
        s = MVCCStore()
        txn = s.transaction()
        txn.put("a", 1)
        assert txn.get("a") == 1

    def test_snapshot_isolation(self):
        s = MVCCStore()
        s.put("a", 1)
        txn = s.transaction()
        s.put("b", 99)  # concurrent commit, not in footprint
        assert txn.get("b") is None  # reads at the txn snapshot


class TestCommit:
    def test_commit_applies_atomically(self):
        s = MVCCStore()
        txn = s.transaction()
        txn.put("a", 1)
        txn.put("b", 2)
        v = txn.commit()
        assert s.get_versioned("a") == (v, 1)
        assert s.get_versioned("b") == (v, 2)

    def test_readonly_commit_writes_nothing(self):
        s = MVCCStore()
        s.put("a", 1)
        before = s.commit_count
        txn = s.transaction()
        txn.get("a")
        txn.commit()
        assert s.commit_count == before

    def test_write_write_conflict(self):
        s = MVCCStore()
        s.put("a", 0)
        t1 = s.transaction()
        t2 = s.transaction()
        t1.put("a", 1)
        t2.put("a", 2)
        t1.commit()
        with pytest.raises(ConflictError):
            t2.commit()
        assert s.get("a") == 1

    def test_read_write_conflict(self):
        s = MVCCStore()
        s.put("a", 0)
        txn = s.transaction()
        txn.get("a")  # read footprint
        txn.put("b", 1)
        s.put("a", 99)  # concurrent write to a read key
        with pytest.raises(ConflictError):
            txn.commit()
        assert s.get("b") is None  # nothing applied

    def test_disjoint_transactions_both_commit(self):
        s = MVCCStore()
        t1 = s.transaction()
        t2 = s.transaction()
        t1.put("a", 1)
        t2.put("b", 2)
        t1.commit()
        t2.commit()
        assert s.get("a") == 1 and s.get("b") == 2

    def test_conflict_error_details(self):
        s = MVCCStore()
        s.put("a", 0)
        txn = s.transaction()
        txn.put("a", 1)
        committed = s.put("a", 2)
        try:
            txn.commit()
            raise AssertionError("expected conflict")
        except ConflictError as exc:
            assert exc.key == "a"
            assert exc.committed_version == committed


class TestLifecycle:
    def test_use_after_commit_rejected(self):
        s = MVCCStore()
        txn = s.transaction()
        txn.put("a", 1)
        txn.commit()
        with pytest.raises(StorageError):
            txn.get("a")
        with pytest.raises(StorageError):
            txn.commit()

    def test_abort_discards(self):
        s = MVCCStore()
        txn = s.transaction()
        txn.put("a", 1)
        txn.abort()
        assert s.get("a") is None
        with pytest.raises(StorageError):
            txn.put("a", 2)

    def test_paper_acl_sequence_preserves_invariant(self):
        """The §3.2.1 workload at the source: member out before access
        granted, so member∧access never committed."""
        s = MVCCStore()
        s.commit({"g/member": __import__("repro._types", fromlist=["Mutation"]).Mutation.put(1),
                  "g/access": __import__("repro._types", fromlist=["Mutation"]).Mutation.put(0)})
        s.put("g/member", 0)
        s.put("g/access", 1)
        # check every historical state
        for commit in s.history.commits():
            v = commit.version
            member = s.get("g/member", v)
            access = s.get("g/access", v)
            assert not (member and access)
