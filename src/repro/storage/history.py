"""Ordered commit history of a store.

Every store keeps a :class:`ChangeHistory`: the sequence of committed
transactions in version order.  It is the single source both pipelines
tail:

- the CDC capture (``repro.cdc``) reads it to publish change events into
  the pubsub baseline, and
- the watch systems (``repro.core``) read it — directly (built-in watch)
  or via the ``Ingester`` contract (external watch).

The history supports bounded retention.  Truncation models the reality
that no store keeps its redo log forever; a reader that has fallen
behind the retained window gets :class:`HistoryTruncatedError` and must
recover via a snapshot — exactly the recovery path the paper's resync
signal makes programmatic (§4.4), and exactly the path pubsub lacks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro._types import Key, KeyRange, Mutation, Version, VERSION_ZERO
from repro.storage.errors import HistoryTruncatedError


@dataclass(slots=True, unsafe_hash=True)
class CommittedTransaction:
    """One committed transaction: an atomic set of key mutations.

    ``writes`` preserves the order keys were written in (insertion
    order of the originating dict), though atomicity means consumers
    should treat them as simultaneous at ``version``.

    Immutable by contract: slotted and not frozen, so a commit costs
    plain stores, not an ``object.__setattr__`` per field; equality and
    hash are the frozen dataclass's.
    """

    version: Version
    writes: Tuple[Tuple[Key, Mutation], ...]
    commit_time: float = 0.0

    def touches(self, key_range: KeyRange) -> bool:
        return any(key_range.contains(k) for k, _ in self.writes)


TailCallback = Callable[[CommittedTransaction], None]


class ChangeHistory:
    """Version-ordered list of committed transactions with retention.

    ``retention_commits`` bounds the number of retained commits; older
    commits are truncated on append.  A reader can replay contiguously
    from version ``v`` only if no commit with version > ``v`` has been
    truncated (tracked exactly via the max truncated version).
    """

    def __init__(self, retention_commits: Optional[int] = None) -> None:
        if retention_commits is not None and retention_commits < 1:
            raise ValueError("retention_commits must be >= 1 when set")
        self._commits: List[CommittedTransaction] = []
        self._versions: List[Version] = []  # parallel array for bisect
        self._truncated_max: Version = VERSION_ZERO
        self._retention_commits = retention_commits
        self._tailers: Dict[int, TailCallback] = {}
        self._next_tailer_id = 0

    # ------------------------------------------------------------------
    # writing

    def append(self, commit: CommittedTransaction) -> None:
        """Append a commit; versions must be strictly increasing."""
        if self._versions and commit.version <= self._versions[-1]:
            raise ValueError(
                f"out-of-order commit v{commit.version} after v{self._versions[-1]}"
            )
        if commit.version <= self._truncated_max:
            raise ValueError(
                f"commit v{commit.version} at or below truncation point "
                f"v{self._truncated_max}"
            )
        self._commits.append(commit)
        self._versions.append(commit.version)
        if self._retention_commits is not None:
            excess = len(self._commits) - self._retention_commits
            if excess > 0:
                self._truncate_prefix(excess)
        for callback in list(self._tailers.values()):
            callback(commit)

    def _truncate_prefix(self, n: int) -> None:
        if n <= 0:
            return
        self._truncated_max = max(self._truncated_max, self._versions[n - 1])
        del self._commits[:n]
        del self._versions[:n]

    def truncate_before(self, version: Version) -> int:
        """Drop commits with version < ``version``; return count dropped."""
        idx = bisect.bisect_left(self._versions, version)
        self._truncate_prefix(idx)
        return idx

    # ------------------------------------------------------------------
    # reading

    @property
    def last_version(self) -> Version:
        """Version of the newest commit (VERSION_ZERO if empty)."""
        return self._versions[-1] if self._versions else self._truncated_max

    @property
    def oldest_retained(self) -> Version:
        """Version of the oldest retained commit (or the truncation point)."""
        return self._versions[0] if self._versions else self._truncated_max

    def can_replay_from(self, version: Version) -> bool:
        """True if ``since(version)`` would yield a contiguous history."""
        return version >= self._truncated_max

    def since(self, version: Version) -> Iterator[CommittedTransaction]:
        """Iterate commits with version strictly greater than ``version``.

        Raises :class:`HistoryTruncatedError` if any commit newer than
        ``version`` has been truncated — the caller cannot replay a
        contiguous history and must snapshot instead.
        """
        if not self.can_replay_from(version):
            raise HistoryTruncatedError(version, self.oldest_retained)
        idx = bisect.bisect_right(self._versions, version)
        # materialize so iteration tolerates concurrent appends
        return iter(self._commits[idx:])

    def commits(self) -> Tuple[CommittedTransaction, ...]:
        """All retained commits, oldest first."""
        return tuple(self._commits)

    # ------------------------------------------------------------------
    # tailing

    def tail(self, callback: TailCallback) -> Callable[[], None]:
        """Invoke ``callback`` synchronously on every future commit.

        Returns a cancel function.  Tailing is how built-in watch and
        CDC observe the store without polling.
        """
        tailer_id = self._next_tailer_id
        self._next_tailer_id += 1
        self._tailers[tailer_id] = callback

        def cancel() -> None:
            self._tailers.pop(tailer_id, None)

        return cancel
