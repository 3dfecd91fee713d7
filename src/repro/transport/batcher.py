"""Nagle-style payload coalescing for simulated wire endpoints.

A :class:`BatchingSender` sits in front of :class:`repro.sim.network.Network`
and buffers payloads per destination.  A buffer flushes as one
:class:`Frame` when it reaches ``max_batch`` payloads or when the oldest
buffered payload has lingered ``max_linger`` sim-seconds — whichever
comes first.  The receive side wraps its handler in an
:class:`Unbatcher`, which unpacks frames back into per-message handler
calls (and passes non-frame payloads through untouched, so a batched
sender can share an endpoint with unbatched peers).

Both flush triggers are deterministic: sizes are plain counters and the
linger timer runs on the sim clock, so a seeded run batches identically
every replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network, payload_message_count
from repro.sim.wire import register as _wire_register, wire_size
from repro.obs.trace import Tracer, hops


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


@dataclass
class Frame:
    """A wire frame carrying one or more coalesced payloads.

    ``seq`` is the per-(src, dst) frame sequence number; it is what
    ``Network`` records as the dropped unit's ``seq`` when the whole
    frame is lost, so trace joins attribute every coalesced payload.
    """

    seq: int
    payloads: List[Any] = field(default_factory=list)
    #: wire size, stored at flush time (see ``wire.register``) so the
    #: network measures the frame without walking it again
    cached_size: int = field(default=0, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.payloads)


_wire_register(Frame, "transport.Frame", ("seq", "payloads"))

# slab of spent frames: the steady-state batched hot path reuses frame
# shells (and their payload lists) instead of allocating one per flush
_FRAME_POOL: List[Frame] = []
_FRAME_POOL_MAX = 1024


def _acquire_frame(seq: int) -> Frame:
    if _FRAME_POOL:
        frame = _FRAME_POOL.pop()
        frame.seq = seq
        return frame
    return Frame(seq=seq)


def release_frame(frame: Frame) -> None:
    """Return a delivered frame to the slab for reuse.

    Safe only once the frame has left the wire: the :class:`Unbatcher`
    calls this after unpacking (dropped frames are simply garbage
    collected — the network holds no reference after the drop).
    """
    if len(_FRAME_POOL) < _FRAME_POOL_MAX:
        frame.payloads.clear()
        frame.cached_size = 0
        _FRAME_POOL.append(frame)


# canonical implementation lives next to the counting layer
frame_message_count = payload_message_count


class BatchingSender:
    """Per-destination payload coalescing over a raw ``Network``.

    ``send(dst, payload)`` buffers and returns the frame seq the payload
    will ship under — callers that trace their send hop record that seq
    so a dropped frame joins back to every payload it carried.
    """

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        src: str,
        config: Optional[BatchConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "batcher",
    ) -> None:
        self.sim = sim
        self.net = net
        self.src = src
        self.config = config or BatchConfig()
        self.tracer = tracer
        self.metrics = metrics
        self.name = name
        self._next_seq: Dict[str, int] = {}
        self._open: Dict[str, Frame] = {}
        self._opened_at: Dict[str, float] = {}

    # -- sending ---------------------------------------------------------

    def send(self, dst: str, payload: Any) -> int:
        """Buffer ``payload`` for ``dst``; return its frame's seq."""
        frame = self._open.get(dst)
        if frame is None:
            seq = self._next_seq.get(dst, 0)
            self._next_seq[dst] = seq + 1
            frame = _acquire_frame(seq)
            self._open[dst] = frame
            self._opened_at[dst] = self.sim.now()
            self.sim.post(
                self.config.max_linger, lambda: self._linger_flush(dst, seq)
            )
        frame.payloads.append(payload)
        if len(frame) >= self.config.max_batch:
            self.flush(dst)
        return frame.seq

    def flush(self, dst: str) -> None:
        """Ship ``dst``'s open frame now, if any."""
        frame = self._open.pop(dst, None)
        if frame is None:
            return
        opened_at = self._opened_at.pop(dst)
        if self.tracer is not None:
            self.tracer.record(
                hops.FRAME_FLUSH,
                self.name,
                key=None,
                version=None,
                src=self.src,
                dst=dst,
                seq=frame.seq,
                n_events=len(frame),
                linger=self.sim.now() - opened_at,
            )
        if self.metrics is not None:
            self.metrics.counter(f"{self.name}.frames").inc()
            self.metrics.counter(f"{self.name}.framed_msgs").inc(len(frame))
        frame.cached_size = wire_size(frame)
        self.net.send(self.src, dst, frame)

    def flush_all(self) -> None:
        for dst in list(self._open):
            self.flush(dst)

    def _linger_flush(self, dst: str, seq: int) -> None:
        frame = self._open.get(dst)
        if frame is not None and frame.seq == seq:
            self.flush(dst)

    # -- introspection ---------------------------------------------------

    def pending(self, dst: str) -> int:
        """Payloads currently buffered for ``dst`` (unsent)."""
        frame = self._open.get(dst)
        return len(frame) if frame is not None else 0


class Unbatcher:
    """Wrap an endpoint handler; unpack frames into per-message calls."""

    def __init__(self, handler: Callable[[str, Any], None]) -> None:
        self._handler = handler

    def __call__(self, src: str, payload: Any) -> None:
        if isinstance(payload, Frame):
            for message in payload.payloads:
                self._handler(src, message)
            # the frame has served its wire purpose; recycle the shell
            release_frame(payload)
        else:
            self._handler(src, payload)
