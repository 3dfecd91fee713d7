"""CDC capture: turn a store's commit history into change records.

The capture tails :class:`~repro.storage.history.ChangeHistory` and
emits one :class:`ChangeRecord` per key write.  Records carry the
source transaction version — the information a careful consumer *could*
use for version checks (§3.2.1) — because real CDC systems (Debezium,
DynamoDB streams, Spanner change streams) do expose it.  What the
pubsub layer then does with ordering is the experiment's subject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro._types import Key, Mutation, Version
from repro.obs.trace import hops
from repro.storage.history import ChangeHistory, CommittedTransaction


@dataclass(slots=True, unsafe_hash=True)
class ChangeRecord:
    """One captured key change.

    ``txn_version`` is the source commit version; ``txn_size`` the
    number of writes in the originating transaction (consumers that
    want transactional apply need to regroup — pubsub does not preserve
    boundaries across partitions, §3.2.1).

    Immutable by contract: slotted and not frozen, so building one per
    key write costs plain stores, not an ``object.__setattr__`` per
    field; equality and hash are the frozen dataclass's.
    """

    key: Key
    mutation: Mutation
    txn_version: Version
    txn_index: int
    txn_size: int

    @property
    def is_delete(self) -> bool:
        return self.mutation.is_delete

    @property
    def value(self) -> Any:
        return self.mutation.value


RecordSink = Callable[[ChangeRecord], None]


class CdcCapture:
    """Tails a history, fanning each commit out as change records."""

    def __init__(
        self, history: ChangeHistory, sink: RecordSink, tracer=None
    ) -> None:
        self._sink = sink
        self.tracer = tracer
        self.records_emitted = 0
        self.commits_captured = 0
        history.tail(self._on_commit)

    def _on_commit(self, commit: CommittedTransaction) -> None:
        self.commits_captured += 1
        size = len(commit.writes)
        for index, (key, mutation) in enumerate(commit.writes):
            self.records_emitted += 1
            if self.tracer is not None:
                self.tracer.record(
                    hops.CDC_CAPTURE, "cdc",
                    key=key, version=commit.version, txn_size=size,
                )
            self._sink(
                ChangeRecord(
                    key=key,
                    mutation=mutation,
                    txn_version=commit.version,
                    txn_index=index,
                    txn_size=size,
                )
            )
