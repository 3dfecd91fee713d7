"""Tests for the consistency checkers: soundness and completeness."""

import pytest

from repro._types import Mutation
from repro.replication.checker import (
    AclInvariantChecker,
    SnapshotChecker,
    state_fingerprint,
)
from repro.replication.target import ReplicaStore
from repro.storage.kv import MVCCStore


class TestSnapshotCheckerSoundness:
    def test_faithful_txn_replay_has_zero_violations(self):
        """Checker soundness: replaying source transactions atomically
        in order matches a source state at every step."""
        source = MVCCStore()
        checker = SnapshotChecker(source)
        target = ReplicaStore()
        checker.attach_target(target)
        source.commit({"a": Mutation.put(1)})
        source.commit({"a": Mutation.put(2), "b": Mutation.put(3)})
        source.commit({"a": Mutation.delete()})
        for commit in source.history.commits():
            target.apply_txn(list(commit.writes), commit.version)
        assert checker.states_checked == 3
        assert checker.violations == 0
        assert checker.regressions == 0
        assert checker.final_divergence(target) == []

    def test_pre_attach_history_replayed(self):
        source = MVCCStore()
        source.put("a", 1)  # committed before the checker attaches
        checker = SnapshotChecker(source)
        target = ReplicaStore()
        checker.attach_target(target)
        target.apply_txn([("a", Mutation.put(1))], 1)
        assert checker.violations == 0


class TestSnapshotCheckerCompleteness:
    def test_torn_transaction_detected(self):
        """Applying half a multi-key transaction externalizes a state
        that never existed at the source."""
        source = MVCCStore()
        checker = SnapshotChecker(source)
        target = ReplicaStore()
        checker.attach_target(target)
        v = source.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
        target.apply_versioned("a", Mutation.put(1), v)  # torn: b missing
        assert checker.violations == 1
        target.apply_versioned("b", Mutation.put(2), v)  # now complete
        assert checker.violations == 1
        assert checker.states_checked == 2

    def test_order_regression_detected(self):
        source = MVCCStore()
        checker = SnapshotChecker(source)
        target = ReplicaStore()
        checker.attach_target(target)
        v1 = source.put("a", 1)
        v2 = source.put("a", 2)
        target.apply_naive("a", Mutation.put(2), v2)  # state at v2
        target.apply_naive("a", Mutation.put(1), v1)  # back to v1 state!
        assert checker.regressions == 1

    def test_final_divergence_lists_keys(self):
        source = MVCCStore()
        checker = SnapshotChecker(source)
        target = ReplicaStore()
        source.put("a", 1)
        source.put("b", 2)
        target.apply_naive("a", Mutation.put(1), 1)
        target.apply_naive("c", Mutation.put(9), 2)  # extra key
        assert checker.final_divergence(target) == ["b", "c"]


class TestAclChecker:
    def test_violation_counted(self):
        checker = AclInvariantChecker([("g/member", "g/access")])
        target = ReplicaStore()
        checker.attach_target(target)
        target.apply_naive("g/access", Mutation.put(1), 2)  # applied first
        assert checker.violating_states == 0  # member not set yet
        target.apply_naive("g/member", Mutation.put(1), 1)  # reorder!
        assert checker.violating_states == 1
        assert checker.violating_pairs == {0}

    def test_correct_order_no_violation(self):
        checker = AclInvariantChecker([("g/member", "g/access")])
        target = ReplicaStore()
        checker.attach_target(target)
        target.apply_naive("g/member", Mutation.put(1), 1)
        target.apply_naive("g/member", Mutation.put(0), 2)
        target.apply_naive("g/access", Mutation.put(1), 3)
        assert checker.violating_states == 0
        assert checker.violating_states == 0

    def test_falsy_values_do_not_violate(self):
        checker = AclInvariantChecker([("m", "a")])
        target = ReplicaStore()
        checker.attach_target(target)
        target.apply_naive("m", Mutation.put(0), 1)
        target.apply_naive("a", Mutation.put(1), 2)
        assert checker.violating_states == 0


class TestStateFingerprint:
    def test_helper_matches_incremental(self):
        target = ReplicaStore()
        target.apply_naive("a", Mutation.put(1), 1)
        target.apply_naive("b", Mutation.put("x"), 2)
        assert state_fingerprint(target.items()) == target.fingerprint

    def test_order_independent(self):
        assert state_fingerprint({"a": 1, "b": 2}) == state_fingerprint(
            {"b": 2, "a": 1}
        )
