"""Storage-layer exceptions.

Each one pickles as its constructor arguments (``__reduce__``), so it
crosses a fleet worker's result pipe with its type, fields and message
intact; the default pickling would re-call ``__init__`` with the one
formatted message.
"""

from __future__ import annotations


class StorageError(RuntimeError):
    """Base class for storage errors."""


class ConflictError(StorageError):
    """Optimistic transaction aborted: a key in its footprint changed."""

    def __init__(self, key: str, read_version: int, committed_version: int) -> None:
        super().__init__(
            f"conflict on key {key!r}: read at v{read_version}, "
            f"concurrently committed at v{committed_version}"
        )
        self.key = key
        self.read_version = read_version
        self.committed_version = committed_version

    def __reduce__(self):
        args = (self.key, self.read_version, self.committed_version)
        return type(self), args, self.__dict__


class HistoryTruncatedError(StorageError):
    """A reader asked for history older than the retained window.

    This is the storage-level analogue of the watch system's resync
    signal: the caller must take a fresh snapshot and resume from its
    version instead of replaying from where it left off.
    """

    def __init__(self, requested_version: int, oldest_retained: int) -> None:
        super().__init__(
            f"history from v{requested_version} no longer retained "
            f"(oldest retained commit is v{oldest_retained})"
        )
        self.requested_version = requested_version
        self.oldest_retained = oldest_retained

    def __reduce__(self):
        args = (self.requested_version, self.oldest_retained)
        return type(self), args, self.__dict__

