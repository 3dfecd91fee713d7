"""Consistency checkers for replication targets.

Two checkers, both cheap enough to run on every externalized state:

:class:`SnapshotChecker` — *point-in-time consistency*: "the target
store should ... only externalize states that actually existed in the
source" (§3.2.1).  The source side maintains an incremental XOR
fingerprint of its visible state per version (tailed from its history);
the target reports its fingerprint after every state transition.  A
target state whose fingerprint never occurred at the source is a
snapshot violation; a match that goes *backwards* in source-version
order is an order regression.  At quiescence the checker also reports
eventual-consistency divergence key-by-key.

:class:`AclInvariantChecker` — the paper's concrete anomaly: "we remove
a member from a group and then give that group access to a document.
If we reverse the order ... the target store transiently records a
state where the member has access to the document, a state that never
existed in producer storage."  For registered (member_key, access_key)
pairs whose source history never shows member=1 ∧ access=1, the checker
counts every externalized target state that does.

(The fingerprint checker subsumes the ACL checker in theory; the ACL
checker exists because it names the anomaly the paper names, and it is
robust to the — astronomically unlikely — XOR collisions.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from repro._types import Key, Version
from repro.replication.target import ReplicaStore, _item_hash, state_fingerprint
from repro.storage.history import CommittedTransaction
from repro.storage.kv import MVCCStore

__all__ = ["AclInvariantChecker", "SnapshotChecker", "state_fingerprint"]


class SnapshotChecker:
    """Point-in-time consistency checking via state fingerprints."""

    def __init__(self, source: MVCCStore) -> None:
        self.source = source
        self._source_fp = 0
        self._source_shadow: Dict[Key, Any] = {}
        #: fingerprint -> sorted versions it occurred at (states can
        #: recur, e.g. write-then-delete; matching must pick the
        #: occurrence consistent with monotone replay)
        self._fp_versions: Dict[int, List[Version]] = {0: [0]}
        source.history.tail(self._on_source_commit)
        # replay anything committed before we attached
        for commit in source.history.commits():
            self._on_source_commit(commit, replay=True)
        # target-side tallies
        self.states_checked = 0
        self.violations = 0
        self.regressions = 0
        self._last_matched_version: Version = 0
        self._violating_fps: List[int] = []

    # ------------------------------------------------------------------
    # source side

    def _on_source_commit(self, commit: CommittedTransaction, replay: bool = False) -> None:
        for key, mutation in commit.writes:
            if key in self._source_shadow:
                self._source_fp ^= _item_hash(key, self._source_shadow[key])
            if mutation.is_delete:
                self._source_shadow.pop(key, None)
            else:
                self._source_shadow[key] = mutation.value
                self._source_fp ^= _item_hash(key, mutation.value)
        self._fp_versions.setdefault(self._source_fp, []).append(commit.version)

    @property
    def source_fingerprint(self) -> int:
        """XOR fingerprint of the source's current visible state.

        A replica whose fingerprint equals this is (modulo XOR
        collisions) byte-identical to the source head — the O(1) fast
        path the anti-entropy reconciler checks before diffing."""
        return self._source_fp

    # ------------------------------------------------------------------
    # target side

    def attach_target(self, target: ReplicaStore) -> None:
        """Check every future externalized state of ``target``."""
        target.observe(self._on_target_state)

    def _on_target_state(self, target: ReplicaStore) -> None:
        self.states_checked += 1
        versions = self._fp_versions.get(target.fingerprint)
        if not versions:
            self.violations += 1
            if len(self._violating_fps) < 32:
                self._violating_fps.append(target.fingerprint)
            return
        # pick the earliest occurrence that keeps the replay monotone;
        # only if every occurrence is older than the last match did the
        # target truly step backwards
        import bisect

        idx = bisect.bisect_left(versions, self._last_matched_version)
        if idx < len(versions):
            self._last_matched_version = versions[idx]
        else:
            self.regressions += 1
            self._last_matched_version = versions[-1]

    # ------------------------------------------------------------------
    # quiescence checks

    def final_divergence(self, target: ReplicaStore) -> List[Key]:
        """Keys whose value differs between source (latest) and target.

        Nonzero after traffic quiesces = eventual-consistency violation
        (stale overwrite or resurrection survived)."""
        diverged: List[Key] = []
        source_items = dict(self.source.scan())
        target_items = target.items()
        for key in set(source_items) | set(target_items):
            if source_items.get(key) != target_items.get(key):
                diverged.append(key)
        return sorted(diverged)


class AclInvariantChecker:
    """Counts externalized states violating member/access exclusion."""

    def __init__(self, pairs: Sequence[Tuple[Key, Key]]) -> None:
        """``pairs``: (member_key, access_key) — the workload guarantees
        the source never externalizes member truthy ∧ access truthy."""
        self.pairs = list(pairs)
        self._by_key: Dict[Key, List[int]] = {}
        for idx, (member_key, access_key) in enumerate(self.pairs):
            self._by_key.setdefault(member_key, []).append(idx)
            self._by_key.setdefault(access_key, []).append(idx)
        self.violating_states = 0
        self.violating_pairs: Set[int] = set()
        self.states_checked = 0

    def attach_target(self, target: ReplicaStore) -> None:
        target.observe(self._on_target_state)

    def _on_target_state(self, target: ReplicaStore) -> None:
        self.states_checked += 1
        violated = False
        for idx, (member_key, access_key) in enumerate(self.pairs):
            if target.get(member_key) and target.get(access_key):
                violated = True
                self.violating_pairs.add(idx)
        if violated:
            self.violating_states += 1
