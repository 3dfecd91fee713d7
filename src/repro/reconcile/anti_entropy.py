"""Anti-entropy replication reconciler: fingerprint-diff, then repair.

The Plan phase is a two-level check per key-range scope:

1. **O(1) fast path** — if the replica's XOR fingerprint (folded over
   its state once, on the first plan's read; incremental after) equals
   the :class:`~repro.replication.checker.SnapshotChecker`'s
   incrementally maintained source fingerprint *and* the replica's
   cursors verify, the whole store is legal and every scope plans
   'nothing to do'.
2. **Scoped diff** — otherwise, walk the scope's key range comparing
   replica values and per-key cursors against the source head.  A key
   counts as diverged when its per-key cursor is forged beyond the
   source head, or its value differs from the source *and* the
   replica's apply watermark has already passed the source version of
   that key (so the difference cannot be in-flight replication lag).

Divergence must survive **two consecutive rounds** at the same source
version before it is claimed (suspect → confirm): that keeps a live
write burst from being mistaken for corruption, at the price of one
extra round in the convergence bound.

The Execute phase is the repair the tentpole names: targeted re-read
of the confirmed keys from the source at head, force-applied through
:meth:`~repro.replication.target.ReplicaStore.repair` — idempotent by
construction (re-reading and re-writing the authoritative value twice
is the same as once).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._types import KeyRange, Mutation, Version
from repro.reconcile.framework import (
    PlanResult,
    OP_LATENCY,
    Reconciler,
    ScopeRecord,
)
from repro.replication.checker import SnapshotChecker
from repro.replication.target import CursorCorruption, ReplicaStore
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore


class AntiEntropyReconciler(Reconciler):
    """Level-triggered repair of a ReplicaStore against its source."""

    def __init__(
        self,
        sim: Simulation,
        source: MVCCStore,
        replica: ReplicaStore,
        shards: Sequence[Tuple[str, KeyRange]],
        checker: Optional[SnapshotChecker] = None,
        name: str = "anti-entropy",
        tracer=None,
    ) -> None:
        super().__init__(sim, name, tracer=tracer)
        self.source = source
        self.replica = replica
        self._shards = list(shards)
        self._ranges: Dict[str, KeyRange] = dict(self._shards)
        self.checker = checker
        #: per-scope {key: source version} awaiting confirmation
        self._suspects: Dict[str, Dict[str, Version]] = {}

    def scopes(self) -> List[str]:
        return [name for name, _ in self._shards]

    # ------------------------------------------------------------------
    # Plan

    def plan(self, scope: str) -> PlanResult:
        head = self.source.last_version
        if (
            self.checker is not None
            and self.replica.fingerprint == self.checker.source_fingerprint
        ):
            try:
                self.replica.verify_cursor(head)
                self._suspects.pop(scope, None)
                return None  # fingerprints match, cursors legal: done
            except CursorCorruption:
                pass  # values match but a cursor is forged: keep diffing
        forged, suspected = self._diverged(self._ranges[scope], head)
        previous = self._suspects.get(scope, {})
        # forged-future cursors are provably corrupt (nothing in flight
        # can explain them) and confirm immediately; value mismatches
        # must recur in two consecutive rounds at the same source
        # version (rules out in-flight write bursts)
        confirmed = sorted(set(forged) | {
            key for key, version in suspected.items()
            if previous.get(key) == version
        })
        if suspected:
            self._suspects[scope] = suspected
        else:
            self._suspects.pop(scope, None)
        if not confirmed:
            return None  # new suspects: wait one round for confirmation
        return ("anti-entropy", {"keys": confirmed})

    def _diverged(
        self, key_range: KeyRange, head: Version
    ) -> Tuple[List[str], Dict[str, Version]]:
        """(provably forged keys, {suspect key: source version})."""
        source_items = dict(self.source.scan(key_range, head))
        forged: List[str] = []
        suspected: Dict[str, Version] = {}
        watermark = self.replica.cursor
        replica_items = {
            key: value for key, value in self.replica.items().items()
            if key_range.contains(key)
        }
        for key in sorted(set(source_items) | set(replica_items)):
            if self.replica.version_of(key) > head:
                forged.append(key)  # cursor beyond head: always corrupt
                continue
            versioned = self.source.get_versioned(key, head)
            src_version = versioned[0] if versioned is not None else head
            src_value = versioned[1] if versioned is not None else None
            if replica_items.get(key) == src_value:
                continue
            if watermark >= src_version:
                # the apply path already passed this version, so the
                # mismatch cannot be replication lag — corruption
                suspected[key] = src_version
        return forged, suspected

    # ------------------------------------------------------------------
    # Execute

    def execute(self, scope: str, record: ScopeRecord) -> None:
        keys = list(record.detail.get("keys", ()))
        op_id = record.op_id

        def repair() -> None:
            head = self.source.last_version
            for key in keys:
                versioned = self.source.get_versioned(key, head)
                if versioned is None:
                    self.replica.repair(key, Mutation.delete(), head)
                else:
                    version, value = versioned
                    self.replica.repair(key, Mutation.put(value), version)
            self._suspects.pop(scope, None)
            self.finish(scope, op_id, True, keys=len(keys))

        self.sim.call_after(OP_LATENCY, repair)
