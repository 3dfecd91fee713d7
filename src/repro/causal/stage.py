"""The causal stage a world composes around pipelines that know
nothing of causal order: in-band stamp carriers (CDC payloads, relay
frames) and the gates (a pubsub consumer, each edge session feed).
See docs/causal.md."""

from __future__ import annotations

from typing import List

from repro.causal.buffer import CausalBuffer, CausalBufferConfig
from repro.causal.stamp import StampIndex
from repro.core.api import WatchCallback
from repro.core.relay import ReliableFanoutEndpoint, ReliableFanoutLink
from repro.edge.frontend import WatchEdgeFrontend
from repro.obs.trace import payload_version
from repro.pubsub.consumer import Consumer


def stamped_publish(publish_fn, stamps: StampIndex):
    """Wrap a CDC ``publish_fn(topic, key, payload)`` so each payload
    carries its stamp under ``"causal"``, after every other field."""

    def publish(topic, key, payload):
        stamp = stamps.lookup(key, payload["version"])
        if stamp is not None:
            payload["causal"] = stamp
        return publish_fn(topic, key, payload)

    return publish


class GatedConsumer(Consumer):
    """A consumer whose deliveries pass one cross-partition gate, under
    the lease: a held message is unacked, so a crash drops it and the
    lease redelivers it.  Keep the hold deadline below ``ack_timeout``,
    or a message held that long is redelivered into the gate again."""

    def __init__(self, sim, name, handler, gate: CausalBufferConfig, tracer=None):
        super().__init__(sim, name, handler)
        self.buffer = CausalBuffer(sim, gate, name=name, tracer=tracer, component=name)

    def deliver(self, message, receipt) -> None:
        version = payload_version(message.payload)
        if not self.up or version is None:
            super().deliver(message, receipt)  # dropped while down / unordered
            return
        self.buffer.submit(
            message.key, version, message.payload.get("causal"),
            self._admit, receipt,
        )

    def _admit(self, receipt) -> None:
        """A gated delivery passed: queue it for the handler."""
        super().deliver(receipt.message, receipt)

    def deliver_batch(self, messages, receipt) -> None:
        raise TypeError(f"{self.name} gates messages one at a time; "
                        f"subscribe it with max_delivery_batch=1")

    def crash(self) -> None:
        self.buffer.discard()
        super().crash()


class StampedFanoutLink(ReliableFanoutLink):
    """A relay link whose event frames carry each event's stamp."""

    def __init__(self, *args, stamps: StampIndex, **kwargs) -> None:
        self.stamps = stamps  # before the base watches: replay ships frames
        super().__init__(*args, **kwargs)

    def _event_frame(self, event):
        frame = super()._event_frame(event)
        stamp = self.stamps.lookup(event.key, event.version)
        if stamp is not None:
            frame["causal"] = stamp
        return frame


class StampedFanoutEndpoint(ReliableFanoutEndpoint):
    """A relay endpoint recording arriving stamps into :attr:`stamps`."""

    def __init__(self, *args, **kwargs) -> None:
        self.stamps = StampIndex()
        super().__init__(*args, **kwargs)

    def _on_frame(self, src, frame) -> None:
        stamp = frame.get("causal")
        if stamp is not None:
            event = frame["event"]
            self.stamps.record(event.key, event.version, stamp)
        super()._on_frame(src, frame)


class GatedWatchFrontend(WatchEdgeFrontend):
    """A watch edge frontend gating each session feed through its own
    buffer: range-filtered, floored at the feed's catch-up version (deps
    the client already holds count as observed), reading ``stamps``.
    Supersession is a reorder: give it ``SessionConfig(coalesce=False)``."""

    def __init__(self, *args, stamps: StampIndex, gate: CausalBufferConfig, **kwargs):
        self.stamps = stamps
        self.gate = gate
        self.buffers: List[CausalBuffer] = []  # every gate built, for accounting
        super().__init__(*args, **kwargs)

    def _new_feed(self, session, from_version):
        buffer = CausalBuffer(
            self.sim, self.gate, name=f"{self.name}/{session.client.name}",
            in_range=session.key_range.contains, tracer=session.tracer,
            component=self.name,
        )
        buffer.set_floor(from_version)
        self.buffers.append(buffer)
        return _GatedFeed(
            buffer, super()._new_feed(session, from_version), self.stamps
        )


class _GatedFeed(WatchCallback):
    """One session's feed through its gate: each event waits in
    ``buffer`` until its dependencies are observed, then reaches the
    inner ``feed``."""

    __slots__ = ("buffer", "feed", "stamps")

    def __init__(self, buffer: CausalBuffer, feed: WatchCallback, stamps: StampIndex):
        self.buffer = buffer
        self.feed = feed
        self.stamps = stamps

    def on_event(self, event) -> None:
        key, version = event.key, event.version
        self.buffer.submit(
            key, version, self.stamps.lookup(key, version),
            self.feed.on_event, event,
        )

    def on_progress(self, event) -> None:
        self.feed.on_progress(event)

    def on_resync(self) -> None:
        # the snapshot replacing this feed covers what the gate
        # holds; released later, a held update would overwrite it
        self.buffer.discard()
        self.feed.on_resync()
