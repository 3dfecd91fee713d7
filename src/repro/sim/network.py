"""Network model for simulated nodes.

Components register an :class:`Endpoint` with the :class:`Network` and
messages are delivered via scheduled callbacks with configurable latency,
jitter, loss, and reordering.  Delivery to a partitioned or crashed
endpoint is dropped (counted in metrics).

The pubsub broker, CDC publisher, watch system, cache nodes, and the
auto-sharder's control plane all communicate through this layer, so the
same latency/fault configuration applies uniformly to the baseline and
the proposed system in every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Set, Tuple

from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry
from repro.sim.wire import wire_size


@dataclass(frozen=True)
class NetworkConfig:
    """Latency and fault parameters for message delivery.

    ``base_latency`` is the one-way delay; ``jitter`` adds a uniform
    random extra in ``[0, jitter]`` (which also induces reordering when
    nonzero); ``loss_rate`` drops messages independently at random.
    """

    base_latency: float = 0.001
    jitter: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise ValueError("base_latency must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")


def payload_message_count(payload: Any) -> int:
    """How many application messages a wire payload carries.

    Unbatched payloads count as 1.  Batched frames expose a ``payloads``
    list — possibly wrapped in a channel data frame's ``payload`` field —
    and count as the sum over their contents, so nested grouping (a
    channel frame of group-commit publish commands) still counts leaf
    messages.  A grouped publish command (a dict with a ``records``
    list) counts its records.  Duck-typed so this layer needs no
    imports from the transports that define frame shapes.
    """
    inner = getattr(payload, "payload", payload)
    group = getattr(inner, "payloads", None)
    if group is not None:
        return sum(payload_message_count(item) for item in group)
    if isinstance(inner, dict):
        records = inner.get("records")
        if isinstance(records, list):
            return len(records)
    return 1


class Endpoint:
    """A named message receiver attached to the network."""

    __slots__ = ("name", "handler", "up")

    def __init__(self, name: str, handler: Callable[[str, Any], None]) -> None:
        self.name = name
        self.handler = handler
        self.up = True


class Network:
    """Delivers messages between endpoints with latency and faults.

    Counts are plain ints, reported to ``metrics`` under ``net.*`` once
    touched: ``frames.sent``/``payload.msgs``/``bytes.sent`` from the
    first send, ``delivered``/``bytes.delivered`` from the first
    delivery, and ``dropped.<cause>``/``bytes.dropped.<cause>`` from the
    first drop of that cause.
    """

    def __init__(
        self,
        sim: Simulation,
        config: NetworkConfig = NetworkConfig(),
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        #: optional :class:`repro.obs.trace.Tracer`; when set, every
        #: dropped message records a ``net.drop`` event naming the cause
        #: (loss / partition / down) and the frame's sequence number, so
        #: loss provenance can name the exact hop that lost an update
        self.tracer = tracer
        self._endpoints: Dict[str, Endpoint] = {}
        self._partitions: Set[Tuple[str, str]] = set()
        self.frames_sent = 0
        self.payload_msgs = 0
        self.bytes_sent = 0
        self.delivered = 0
        self.bytes_delivered = 0
        #: cause -> frames / bytes dropped, keyed from the first drop
        self.dropped: Dict[str, int] = {}
        self.bytes_dropped: Dict[str, int] = {}
        self.metrics.register(self._counts)

    def _counts(self) -> Iterator[Tuple[str, int]]:
        if self.frames_sent:
            yield "net.frames.sent", self.frames_sent
            yield "net.payload.msgs", self.payload_msgs
            yield "net.bytes.sent", self.bytes_sent
        if self.delivered:
            yield "net.delivered", self.delivered
            yield "net.bytes.delivered", self.bytes_delivered
        for cause, frames in self.dropped.items():
            yield f"net.dropped.{cause}", frames
            yield f"net.bytes.dropped.{cause}", self.bytes_dropped[cause]

    # ------------------------------------------------------------------
    # topology

    def register(self, name: str, handler: Callable[[str, Any], None]) -> Endpoint:
        """Attach a handler as endpoint ``name``; replaces any previous one."""
        endpoint = Endpoint(name, handler)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Optional[Endpoint]:
        return self._endpoints.get(name)

    def set_up(self, name: str, up: bool) -> None:
        """Mark an endpoint up/down (down endpoints drop all traffic)."""
        ep = self._endpoints.get(name)
        if ep is None:
            raise KeyError(f"unknown endpoint {name!r}")
        ep.up = up

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self._partitions.add((a, b))
        self._partitions.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._partitions.discard((a, b))
        self._partitions.discard((b, a))

    # ------------------------------------------------------------------
    # delivery

    def send(self, src: str, dst: str, payload: Any) -> bool:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns True if the message was scheduled for delivery (it can
        still be dropped at delivery time if the destination goes down
        in flight).  Returns False if dropped immediately by loss or
        partition — callers model retries themselves if they need them.
        """
        self.frames_sent += 1
        self.payload_msgs += payload_message_count(payload)
        # real wire volume: the frame's encoded byte size, measured once
        # here and threaded through to the delivered/dropped counters so
        # every byte sent is accounted exactly once on one outcome
        nbytes = wire_size(payload)
        self.bytes_sent += nbytes
        if self._partitions and (src, dst) in self._partitions:
            self._drop(src, dst, payload, "partition", nbytes)
            return False
        config = self.config
        if config.loss_rate > 0 and self.sim.rng.random() < config.loss_rate:
            self._drop(src, dst, payload, "loss", nbytes)
            return False
        delay = config.base_latency
        if config.jitter > 0:
            delay += self.sim.rng.random() * config.jitter
        # nobody cancels a frame in flight: no EventHandle
        self.sim.post(delay, lambda: self._deliver(src, dst, payload, nbytes))
        return True

    def _deliver(self, src: str, dst: str, payload: Any, nbytes: int) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is None or not endpoint.up:
            self._drop(src, dst, payload, "down", nbytes)
            return
        if self._partitions and (src, dst) in self._partitions:
            self._drop(src, dst, payload, "partition", nbytes)
            return
        self.delivered += 1
        self.bytes_delivered += nbytes
        endpoint.handler(src, payload)

    def _drop(
        self, src: str, dst: str, payload: Any, cause: str, nbytes: int
    ) -> None:
        """Account one dropped message — exactly once per drop.

        Every drop path (send-time partition/loss, delivery-time
        down/partition) funnels through here, so a message that is
        refused at ``send`` is never re-counted at ``_deliver`` and vice
        versa: ``send`` returns False without scheduling delivery, and a
        scheduled message can only be dropped by the delivery-time
        checks.  Byte counters mirror the message funnel: the frame's
        size lands on ``net.bytes.dropped.{cause}`` exactly once.
        """
        self.dropped[cause] = self.dropped.get(cause, 0) + 1
        self.bytes_dropped[cause] = self.bytes_dropped.get(cause, 0) + nbytes
        if self.tracer is None:
            return
        self.tracer.record(
            "net.drop", "network",
            src=src, dst=dst, seq=getattr(payload, "seq", None), cause=cause,
        )
