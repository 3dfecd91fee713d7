"""Model-based testing of the MVCC store against a reference model.

The reference model is the obvious thing: a list of (version, full
state dict) checkpoints, where the state maps each live key to the
version and value of its visible write.  After every operation, the
real store must agree with the model at *every* checkpoint — which
exercises version chains, snapshot pinning, scans and versioned reads
under arbitrary interleavings that example-based tests would never
enumerate.  Optimistic transactions stay open across other rules, so
their first-committer-wins check meets concurrent commits too.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro._types import Mutation
from repro.storage.errors import ConflictError
from repro.storage.kv import MVCCStore

KEYS = ["a", "b", "c", "d", "e"]


class _ModelTxn:
    """What the model knows about one open transaction."""

    def __init__(self, txn, read_version, snapshot):
        self.txn = txn
        self.read_version = read_version
        self.snapshot = snapshot  # the model state at read_version
        self.reads = set()
        self.writes = {}


class MVCCModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = MVCCStore()
        #: live key -> (version, value) of its visible write
        self.model_state = {}
        #: key -> version of its newest write, deletes included
        self.last_write = {}
        #: (version, state) checkpoints, oldest first
        self.checkpoints = [(0, {})]
        self.open_txns = []

    def _committed(self, version, writes):
        """Fold a commit of ``writes`` (key -> value, None = delete)
        into the model."""
        state = dict(self.model_state)
        for key, value in writes.items():
            self.last_write[key] = version
            if value is None:
                state.pop(key, None)
            else:
                state[key] = (version, value)
        self.model_state = state
        self.checkpoints.append((version, state))

    # ------------------------------------------------------------------
    # operations

    @rule(key=st.sampled_from(KEYS), value=st.integers(0, 9))
    def put(self, key, value):
        self._committed(self.store.put(key, value), {key: value})

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        self._committed(self.store.delete(key), {key: None})

    @rule(data=st.dictionaries(st.sampled_from(KEYS), st.integers(0, 9),
                               min_size=2, max_size=4))
    def multi_commit(self, data):
        version = self.store.commit(
            {k: Mutation.put(v) for k, v in data.items()}
        )
        self._committed(version, data)

    # ------------------------------------------------------------------
    # transactions

    @precondition(lambda self: len(self.open_txns) < 3)
    @rule()
    def begin(self):
        self.open_txns.append(
            _ModelTxn(
                self.store.transaction(),
                self.checkpoints[-1][0],
                self.model_state,
            )
        )

    @precondition(lambda self: self.open_txns)
    @rule(data=st.data(), key=st.sampled_from(KEYS))
    def txn_read(self, data, key):
        t = data.draw(st.sampled_from(self.open_txns))
        if key in t.writes:
            expected = t.writes[key]
        else:
            t.reads.add(key)
            visible = t.snapshot.get(key)
            expected = None if visible is None else visible[1]
        assert t.txn.get(key) == expected

    @precondition(lambda self: self.open_txns)
    @rule(data=st.data(), key=st.sampled_from(KEYS), value=st.integers(0, 9))
    def txn_write(self, data, key, value):
        t = data.draw(st.sampled_from(self.open_txns))
        t.txn.put(key, value)
        t.writes[key] = value

    @precondition(lambda self: self.open_txns)
    @rule(data=st.data())
    def txn_commit(self, data):
        t = data.draw(st.sampled_from(self.open_txns))
        self.open_txns.remove(t)
        if not t.writes:
            assert t.txn.commit() == t.read_version
            return
        # first committer wins: any key of the read or write set written
        # by a commit after the snapshot aborts this one
        conflicts = {
            key for key in t.reads | set(t.writes)
            if self.last_write.get(key, 0) > t.read_version
        }
        if conflicts:
            before = self.store.last_version
            with pytest.raises(ConflictError) as raised:
                t.txn.commit()
            assert raised.value.key in conflicts
            assert raised.value.read_version == t.read_version
            assert raised.value.committed_version == self.last_write[raised.value.key]
            assert self.store.last_version == before  # nothing applied
        else:
            self._committed(t.txn.commit(), t.writes)

    # ------------------------------------------------------------------
    # invariants

    @invariant()
    def latest_state_matches(self):
        assert dict(self.store.scan()) == {
            key: value for key, (_, value) in self.model_state.items()
        }

    @invariant()
    def historical_states_match(self):
        for version, expected in self.checkpoints:
            assert dict(self.store.scan(version=version)) == {
                key: value for key, (_, value) in expected.items()
            }, f"divergence at v{version}"

    @invariant()
    def versioned_reads_match(self):
        for version, expected in self.checkpoints:
            for key in KEYS:
                assert self.store.get_versioned(key, version) == expected.get(key), (
                    f"get_versioned({key!r}) divergence at v{version}"
                )

    @invariant()
    def point_gets_match_scan(self):
        for key in KEYS:
            visible = self.model_state.get(key)
            assert self.store.get(key) == (None if visible is None else visible[1])


TestMVCCModel = MVCCModelMachine.TestCase
TestMVCCModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
