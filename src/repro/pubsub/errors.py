"""Pubsub-layer exceptions.

Each one pickles as its constructor arguments (``__reduce__``), so it
crosses a fleet worker's result pipe with its type, fields and message
intact.
"""

from __future__ import annotations


class PubsubError(RuntimeError):
    """Base class for pubsub errors."""


class UnknownTopicError(PubsubError):
    """Publish or subscribe against a topic that does not exist."""

    def __init__(self, topic: str) -> None:
        super().__init__(f"unknown topic {topic!r}")
        self.topic = topic

    def __reduce__(self):
        return type(self), (self.topic,), self.__dict__


class OffsetOutOfRangeError(PubsubError):
    """A reader asked for an offset below the log's GC floor.

    Note the asymmetry the paper highlights: this error surfaces only on
    explicit offset reads (replay/seek, §3.3).  The normal consumer path
    silently skips GC'd messages, because that is what deployed systems
    do — the consumer is never told (§3.1).
    """

    def __init__(self, requested: int, floor: int) -> None:
        super().__init__(f"offset {requested} below GC floor {floor}")
        self.requested = requested
        self.floor = floor

    def __reduce__(self):
        return type(self), (self.requested, self.floor), self.__dict__
