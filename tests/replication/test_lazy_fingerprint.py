"""Differential test: the lazily fingerprinted replica against the eager one.

``ReplicaStore`` hashes nothing until its fingerprint is first read, then
folds the live state once and tracks every write from there;
``tests/replication/reference_target.py`` keeps the store that hashed
every write from construction on, and the corruptor that edited its
fingerprint directly.  Hypothesis writes the programs — ``apply_naive``,
``apply_versioned``, ``apply_txn`` and ``repair`` puts and deletes,
corruptor tears, rewinds and cursor forgeries, ``verify_cursor``,
``reset_cursor``, observers that read the fingerprint on every
notification, and fingerprint reads anywhere, including before any
write and only after corruption.  After every step both stores must
hold the same items, versions, cursor and counters, raise
``CursorCorruption`` at the same steps, and report the same
fingerprint, read from a shallow copy so the step itself never starts
the lazy store's tracking.
"""

from __future__ import annotations

import copy

from hypothesis import example, given, settings, strategies as st

from repro._types import Mutation
from repro.reconcile.corruptor import StateCorruptor, shard_scopes
from repro.replication import target as target_module
from repro.replication.target import CursorCorruption, ReplicaStore
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from tests.replication.reference_target import (
    ReferenceCorruptor,
    ReferenceReplicaStore,
)

_KEYS = "abcdwx"
_mutation = st.one_of(st.none(), st.integers(0, 3))  # None: delete
_version = st.integers(1, 12)
_ACTIONS = st.one_of(
    st.tuples(
        st.sampled_from(["naive", "versioned", "repair"]),
        st.sampled_from(_KEYS), _mutation, _version,
    ),
    st.tuples(
        st.just("txn"),
        st.lists(st.tuples(st.sampled_from(_KEYS), _mutation), max_size=4),
        _version,
    ),
    st.tuples(st.sampled_from([
        "replica-map-tear", "replica-cursor-rewind", "replica-cursor-advance",
    ])),
    st.tuples(st.sampled_from(["read", "observe", "verify", "reset"])),
)


def _mutate(value):
    return Mutation.delete() if value is None else Mutation.put(value)


class _Side:
    """One store, its corruptor, and what its observers saw."""

    def __init__(self, store, corruptor_cls, seed: int) -> None:
        sim = Simulation(seed=seed)
        self.source = MVCCStore(clock=sim.now)
        self.store = store
        self.corruptor = corruptor_cls(
            sim, source=self.source, replica=store, shards=shard_scopes(2),
        )
        self.seen = []

    def step(self, action):
        """Run one action; returns its result or the raised error."""
        store = self.store
        kind = action[0]
        try:
            if kind == "naive":
                return store.apply_naive(action[1], _mutate(action[2]), action[3])
            if kind == "versioned":
                return store.apply_versioned(
                    action[1], _mutate(action[2]), action[3]
                )
            if kind == "repair":
                return store.repair(action[1], _mutate(action[2]), action[3])
            if kind == "txn":
                writes = [(key, _mutate(value)) for key, value in action[1]]
                return store.apply_txn(writes, action[2])
            if kind.startswith("replica-"):
                self.source.put("a", 0)  # moves the head advance forges past
                return self.corruptor.inject(kind)
            if kind == "read":
                return store.fingerprint
            if kind == "observe":
                return store.observe(lambda s: self.seen.append(s.fingerprint))
            if kind == "verify":
                return store.verify_cursor(self.source.last_version)
            return store.reset_cursor()
        except CursorCorruption as error:
            return ("raised", error.kind, error.key, error.detail)

    def view(self):
        store = self.store
        return {
            "items": store.items(),
            "versions": dict(store._versions),
            "cursor": store.cursor,
            "counters": (store.applies, store.skipped_stale, store.repairs),
            "fingerprint": copy.copy(store).fingerprint,
            "seen": list(self.seen),
        }


_FILL = [("versioned", key, i, i + 1) for i, key in enumerate(_KEYS)]


@settings(max_examples=300, deadline=None)
@given(program=st.lists(_ACTIONS, max_size=30), seed=st.integers(0, 3))
# read before any write
@example(program=[("read",)] + _FILL, seed=0)
# read only after corruption: the first fold sees the torn, rewound map
@example(
    program=_FILL + [("replica-map-tear",), ("replica-cursor-rewind",), ("read",)],
    seed=1,
)
# an observer starts tracking mid-program; forged cursors raise after it
@example(
    program=_FILL + [
        ("observe",), ("replica-cursor-advance",), ("versioned", "a", 1, 20),
        ("naive", "b", None, 21), ("repair", "c", 3, 22), ("reset",),
        ("txn", [("d", 1), ("w", None)], 23),
    ],
    seed=2,
)
def test_lazy_fingerprint_matches_eager_reference(program, seed):
    lazy = _Side(ReplicaStore(), StateCorruptor, seed)
    eager = _Side(ReferenceReplicaStore(), ReferenceCorruptor, seed)
    assert lazy.view() == eager.view()
    read = False
    for action in program:
        assert lazy.step(action) == eager.step(action), action
        assert lazy.view() == eager.view(), action
        read = read or action[0] in ("read", "observe")
        if not read:
            # nothing has asked: the lazy store has hashed nothing
            assert lazy.store._fingerprint is None
    assert lazy.store.fingerprint == eager.store.fingerprint


def test_unread_replica_never_hashes(monkeypatch):
    calls = []
    item_hash = target_module._item_hash

    def counting(key, value):
        calls.append(key)
        return item_hash(key, value)

    monkeypatch.setattr(target_module, "_item_hash", counting)
    store = ReplicaStore()
    version = 0
    for round_ in range(3):
        for i in range(20):
            version += 1
            mutation = Mutation.delete() if i % 7 == 6 else Mutation.put(round_)
            store.apply_versioned(f"k{i:02d}", mutation, version)
    store.apply_txn([("t0", Mutation.put(1)), ("k00", Mutation.put(9))], version + 1)
    version += 1
    store.repair("k01", Mutation.put("fixed"), version)
    assert calls == []  # no reader, no hash

    fingerprint = store.fingerprint
    assert len(calls) == len(store._state)  # the first read: one hash per live key
    assert store.fingerprint == fingerprint
    assert len(calls) == len(store._state)  # later reads are free

    for i in range(20):
        calls.clear()
        version += 1
        mutation = Mutation.delete() if i % 5 == 4 else Mutation.put(i)
        store.apply_versioned(f"k{i:02d}", mutation, version)
        assert len(calls) <= 2  # tracked: the old item out, the new one in
