"""The batching knob: one flush policy for every hop that coalesces.

Kafka's throughput edge over per-message brokers comes almost entirely
from producer/consumer batching (Dobbelaere & Sheykh Esmaili), and
MigratoryData reaches millions of concurrent users by coalescing
messages into frames at the wire (Rotaru et al.).  :class:`BatchConfig`
is that lever's one setting (max batch size, max linger on the *sim*
clock — a Nagle-style window).  It drives the group frames of
:class:`~repro.resilience.channel.ReliableChannel` — the only sender on
the simulated wire (one sequence number, one cumulative ack and one
retransmit per frame) — the CDC publisher's group commit, the broker's
batch delivery push path, and the edge tier's bulk session offers; see
``docs/transport.md`` for the map.

Determinism contract: batching is **off by default everywhere**; with
it off, every code path is byte-identical to the unbatched layer it
wraps.  With it on, all flush timing comes from the sim clock and all
frame boundaries from deterministic counters, so batched runs replay
exactly as well.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchConfig"]


@dataclass(frozen=True)
class BatchConfig:
    """Flush policy for a batching endpoint.

    ``max_batch`` caps payloads per frame; ``max_linger`` bounds how long
    the first payload of a frame may wait (sim-seconds) before the frame
    is flushed regardless of size.  ``max_linger=0.0`` is legal and means
    "flush on the next zero-delay tick": payloads enqueued at the same
    sim instant still coalesce, but nothing waits on the clock.
    """

    max_batch: int = 16
    max_linger: float = 0.001

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_linger < 0.0:
            raise ValueError(
                f"max_linger must be >= 0, got {self.max_linger}"
            )
