"""Structured event log: bounded ring buffer + deterministic JSONL.

Every instrumented hop appends one :class:`TraceEvent` to an
:class:`EventLog`.  The log is a ring buffer: beyond ``max_events`` the
oldest events are evicted (counted in :attr:`EventLog.dropped`), so a
long soak cannot grow memory without bound.

JSONL export is byte-deterministic: events serialize with sorted keys
and fixed separators, and all times are sim-clock floats, so two runs
with the same seed produce byte-identical exports — the property the
determinism tests pin down.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One hop observation.

    ``seq`` is the mint order (unique per tracer), ``t`` the sim-clock
    time.  ``key``/``version`` identify the traced update — the MVCC
    commit version is the trace id, the key disambiguates multi-write
    transactions.  Transport-level events (network drops, channel
    frames) carry no identity; they are joined to updates through
    ``attrs`` (channel name, destination, sequence number).
    """

    seq: int
    t: float
    hop: str
    component: str
    key: Optional[str] = None
    version: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Deterministic single-line JSON (sorted keys, fixed separators)."""
        record = {
            "seq": self.seq,
            "t": self.t,
            "hop": self.hop,
            "component": self.component,
            "key": self.key,
            "version": self.version,
            "attrs": self.attrs,
        }
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        record = json.loads(line)
        return TraceEvent(
            seq=record["seq"],
            t=record["t"],
            hop=record["hop"],
            component=record["component"],
            key=record.get("key"),
            version=record.get("version"),
            attrs=record.get("attrs", {}),
        )


#: the ring bound: events past it evict the oldest
MAX_EVENTS = 1_000_000


class EventLog:
    """Bounded, append-only ring buffer of trace events."""

    def __init__(self) -> None:
        self._events: Deque[TraceEvent] = deque(maxlen=MAX_EVENTS)
        self.appended = 0

    def append(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.appended += 1

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self.appended - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    # ------------------------------------------------------------------
    # JSONL round trip

    def to_jsonl(self) -> str:
        """All retained events, one JSON object per line (deterministic)."""
        return "\n".join(event.to_json() for event in self._events)

    @staticmethod
    def from_jsonl(text: str) -> "EventLog":
        log = EventLog()
        for line in text.splitlines():
            line = line.strip()
            if line:
                log.append(TraceEvent.from_json(line))
        return log
