"""Replay / seek: pubsub's "ad hoc storage API" (§3.3).

Modeled on GCP Pub/Sub's "replay and snapshot": a subscription can seek
to an offset, to a timestamp, or to a previously created subscription
snapshot.  The limitations the paper notes are visible in the API
itself:

- seeks below the GC floor fail (:class:`OffsetOutOfRangeError`) — the
  state needed may simply be gone;
- a "snapshot" here is only a *vector of cursor offsets*, not data:
  replaying it redelivers whatever messages still exist, which drifts
  from what existed when the snapshot was taken.

Contrast with the explicit store, where a snapshot is actual versioned
state (``repro.storage.snapshot``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.pubsub.errors import OffsetOutOfRangeError
from repro.pubsub.subscription import Subscription


class SeekTarget(enum.Enum):
    OFFSET = "offset"
    TIMESTAMP = "timestamp"
    SNAPSHOT = "snapshot"


@dataclass(frozen=True)
class SubscriptionSnapshot:
    """Cursor offsets of a subscription at creation time.

    Note what is *not* here: the messages.  If GC runs between snapshot
    and replay, the replay silently covers less history.
    """

    name: str
    topic: str
    created_at: float
    offsets: Dict[int, int]


def create_snapshot(name: str, subscription: Subscription, now: float) -> SubscriptionSnapshot:
    """Capture the subscription's current cursor positions."""
    offsets = {
        partition: subscription._state[partition].fetch_offset
        for partition in subscription._state
    }
    return SubscriptionSnapshot(
        name=name, topic=subscription.topic.name, created_at=now, offsets=offsets
    )


def seek_to_snapshot(subscription: Subscription, snapshot: SubscriptionSnapshot) -> None:
    """Rewind the subscription to the snapshot's offsets.

    Raises :class:`OffsetOutOfRangeError` if any snapshot offset has
    been garbage-collected — replay cannot reconstruct deleted history.
    """
    if snapshot.topic != subscription.topic.name:
        raise ValueError(
            f"snapshot is for topic {snapshot.topic!r}, "
            f"subscription is on {subscription.topic.name!r}"
        )
    for partition, offset in snapshot.offsets.items():
        floor = subscription.topic.partitions[partition].gc_floor
        if offset < floor:
            raise OffsetOutOfRangeError(offset, floor)
    for partition, offset in snapshot.offsets.items():
        subscription.seek(partition, offset)


def seek_to_timestamp(subscription: Subscription, t: float) -> None:
    """Move every partition cursor to the first message at/after ``t``.

    Messages published before ``t`` but already GC'd cannot be
    recovered; like real systems, the seek lands on whatever remains.
    """
    for log in subscription.topic.partitions:
        subscription.seek(log.partition, log.offset_for_time(t))


def seek_to_offset(subscription: Subscription, partition: int, offset: int) -> None:
    """Explicit offset seek; raises below the GC floor."""
    floor = subscription.topic.partitions[partition].gc_floor
    if offset < floor:
        raise OffsetOutOfRangeError(offset, floor)
    subscription.seek(partition, offset)
