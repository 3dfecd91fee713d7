"""Bridges from a store's commit history to an external watch system.

The right column of Figure 3: a store with no native watch support
(MySQL/TiDB in the paper's Snappy deployment) conveys its changes to a
separate watch system through the :class:`~repro.core.api.Ingester`
contract.

Two bridges are provided:

- :class:`DirectIngestBridge` — a single tailer forwarding the whole
  history in order, with whole-keyspace progress.  Simple, but the
  forwarder is a serial bottleneck.
- :class:`PartitionedIngestBridge` — the §4.2.2 design: the keyspace is
  split into partitions, each forwarded *independently* (its own
  latency, so events interleave across partitions out of global version
  order), each emitting **range-scoped** progress for exactly its
  range.  "Progress events are scoped to key ranges rather than being
  global or tied to static partitions ... allowing each system layer to
  define its own partition boundaries which can evolve independently."

Both forward through FIFO channels so the per-range event order the
Ingester contract requires is preserved.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro._types import KEY_MAX, KEY_MIN, KeyRange, Version, VERSION_ZERO
from repro.core.api import Ingester
from repro.core.events import ChangeEvent, ProgressEvent
from repro.sim.kernel import Simulation
from repro.storage.history import ChangeHistory, CommittedTransaction


class _FifoChannel:
    """Delivers callables after a latency, never reordering."""

    def __init__(self, sim: Simulation, base_latency: float) -> None:
        if base_latency < 0:
            raise ValueError("latency must be >= 0")
        self.sim = sim
        self.base_latency = base_latency
        self._last_delivery = 0.0

    def send(self, fn: Callable[[], None]) -> None:
        at = max(self.sim.now() + self.base_latency, self._last_delivery)
        self._last_delivery = at
        self.sim.call_at(at, fn)


class DirectIngestBridge:
    """Single serial forwarder with whole-keyspace progress."""

    def __init__(
        self,
        sim: Simulation,
        history: ChangeHistory,
        ingester: Ingester,
        latency: float = 0.002,
        progress_interval: float = 1.0,
    ) -> None:
        if progress_interval <= 0:
            raise ValueError("progress_interval must be positive")
        self.sim = sim
        self.ingester = ingester
        self._channel = _FifoChannel(sim, latency)
        self._forwarded: Version = VERSION_ZERO
        self._closed = False
        self._cancel_tail = history.tail(self._on_commit)
        sim.call_after(progress_interval, self._tick)
        self._progress_interval = progress_interval

    def close(self) -> None:
        self._closed = True
        self._cancel_tail()

    def _on_commit(self, commit: CommittedTransaction) -> None:
        for key, mutation in commit.writes:
            event = ChangeEvent(key, mutation, commit.version)
            self._channel.send(lambda event=event: self.ingester.append(event))
        self._forwarded = commit.version

    def _tick(self) -> None:
        if self._closed:
            return
        if self._forwarded > VERSION_ZERO:
            version = self._forwarded
            self._channel.send(
                lambda: self.ingester.progress(ProgressEvent(KEY_MIN, KEY_MAX, version))
            )
        self.sim.call_after(self._progress_interval, self._tick)


class _Partition:
    """One independent forwarder for a key range."""

    def __init__(
        self,
        sim: Simulation,
        key_range: KeyRange,
        ingester: Ingester,
        latency: float,
    ) -> None:
        self.key_range = key_range
        self.channel = _FifoChannel(sim, latency)
        self.ingester = ingester
        self.forwarded: Version = VERSION_ZERO

    def forward(self, commit: CommittedTransaction) -> None:
        for key, mutation in commit.writes:
            if self.key_range.contains(key):
                event = ChangeEvent(key, mutation, commit.version)
                self.channel.send(lambda event=event: self.ingester.append(event))
        # whether or not the commit touched this range, the partition's
        # knowledge of the store now extends to this version
        self.forwarded = commit.version

    def emit_progress(self) -> None:
        if self.forwarded > VERSION_ZERO:
            event = ProgressEvent(self.key_range.low, self.key_range.high, self.forwarded)
            self.channel.send(lambda: self.ingester.progress(event))


class PartitionedIngestBridge:
    """N independent range partitions, each with range-scoped progress.

    Per-partition latencies differ (base + per-partition stagger), so
    events reach the watch system out
    of global version order across ranges — which is exactly the
    condition range-scoped progress exists to make safe.
    """

    def __init__(
        self,
        sim: Simulation,
        history: ChangeHistory,
        ingester: Ingester,
        ranges: Sequence[KeyRange],
        base_latency: float = 0.002,
        latency_stagger: float = 0.001,
        progress_interval: float = 1.0,
    ) -> None:
        if not ranges:
            raise ValueError("at least one partition range required")
        if progress_interval <= 0:
            raise ValueError("progress_interval must be positive")
        self.sim = sim
        self.partitions: List[_Partition] = [
            _Partition(
                sim,
                key_range,
                ingester,
                base_latency + idx * latency_stagger,
            )
            for idx, key_range in enumerate(ranges)
        ]
        self._progress_interval = progress_interval
        history.tail(self._on_commit)
        sim.call_after(progress_interval, self._tick)

    def _on_commit(self, commit: CommittedTransaction) -> None:
        for partition in self.partitions:
            partition.forward(commit)

    def _tick(self) -> None:
        for partition in self.partitions:
            partition.emit_progress()
        self.sim.call_after(self._progress_interval, self._tick)


def even_ranges(n: int, alphabet_low: str = "a", alphabet_high: str = "z") -> List[KeyRange]:
    """Split the keyspace into ``n`` ranges, even over one leading
    character in ``[alphabet_low, alphabet_high]`` — a convenience for
    experiments whose keys are lowercase-prefixed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lo_ord, hi_ord = ord(alphabet_low), ord(alphabet_high) + 1
    span = hi_ord - lo_ord
    bounds = [KEY_MIN]
    for i in range(1, n):
        bounds.append(chr(lo_ord + (i * span) // n))
    bounds.append(KEY_MAX)
    out: List[KeyRange] = []
    for i in range(n):
        if bounds[i] < bounds[i + 1]:
            out.append(KeyRange(bounds[i], bounds[i + 1]))
    return out
