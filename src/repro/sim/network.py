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
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.sim.kernel import Simulation
from repro.sim.metrics import Counter, LazyMetric, MetricsRegistry
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
    """Delivers messages between endpoints with latency and faults."""

    _frames_sent = LazyMetric("counter", "net.frames.sent")
    _payload_msgs = LazyMetric("counter", "net.payload.msgs")
    _bytes_sent = LazyMetric("counter", "net.bytes.sent")
    _delivered = LazyMetric("counter", "net.delivered")
    _bytes_delivered = LazyMetric("counter", "net.bytes.delivered")

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
        #: cause -> (net.dropped.<cause>, net.bytes.dropped.<cause>),
        #: bound at the first drop of that cause
        self._drop_counters: Dict[str, Tuple[Counter, Counter]] = {}

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
        self._frames_sent.inc()
        self._payload_msgs.inc(payload_message_count(payload))
        # real wire volume: the frame's encoded byte size, measured once
        # here and threaded through to the delivered/dropped counters so
        # every byte sent is accounted exactly once on one outcome
        nbytes = wire_size(payload)
        self._bytes_sent.inc(nbytes)
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
        self._delivered.inc()
        self._bytes_delivered.inc(nbytes)
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
        counters = self._drop_counters.get(cause)
        if counters is None:
            counters = self._drop_counters[cause] = (
                self.metrics.counter(f"net.dropped.{cause}"),
                self.metrics.counter(f"net.bytes.dropped.{cause}"),
            )
        counters[0].inc()
        counters[1].inc(nbytes)
        if self.tracer is None:
            return
        self.tracer.record(
            "net.drop", "network",
            src=src, dst=dst, seq=getattr(payload, "seq", None), cause=cause,
        )
