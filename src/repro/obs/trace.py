"""Trace contexts, spans, and the Tracer that mints hop events.

The trace id is minted at the producer write: the MVCC commit version
(globally unique, monotone) doubles as the trace anchor, and the row
key disambiguates multi-write transactions.  Both delivery pipelines
already carry ``(key, version)`` in-band end to end — pubsub messages
keep the row key and a ``version`` payload field; watch
:class:`~repro.core.events.ChangeEvent` structs carry both — so trace
propagation needs **no payload changes**: every hop re-derives the
:class:`TraceContext` from data it already holds.

All timestamps come from the simulation clock, never wall clock, and
recording never schedules kernel events or reads the sim RNG, so an
instrumented run is event-for-event identical to an uninstrumented one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry
from repro.obs.eventlog import EventLog, TraceEvent


class hops:
    """Span/hop taxonomy (see docs/observability.md for the map).

    Grouped by pipeline stage; every name is also a JSONL ``hop`` value
    and (for chain hops) a segment of ``obs.hop.*`` histogram names.
    """

    # producer
    COMMIT = "store.commit"
    # CDC pipeline (store -> broker)
    CDC_CAPTURE = "cdc.capture"
    CDC_PUBLISH = "cdc.publish"
    PUBLISH_SEND = "publish.send"      # RemotePublisher -> wire
    PUBLISH_ACKED = "publish.acked"
    PUBLISH_GAVEUP = "publish.gaveup"
    # broker / subscription
    PUBSUB_APPEND = "pubsub.append"
    PUBSUB_DELIVER = "pubsub.deliver"
    PUBSUB_ACK = "pubsub.ack"
    PUBSUB_NACK = "pubsub.nack"
    PUBSUB_GAP = "pubsub.gap"          # cursor skipped GC'd/compacted offsets
    # transport (identity-less; joined via channel/dst/seq attrs)
    NET_DROP = "net.drop"
    CHANNEL_TRANSMIT = "channel.transmit"
    CHANNEL_ACKED = "channel.acked"
    CHANNEL_GIVEUP = "channel.giveup"
    CHANNEL_SENDER_DOWN = "channel.sender_down"
    # watch pipeline
    WATCH_INGEST = "watch.ingest"
    WATCH_DELIVER = "watch.deliver"
    WATCH_RESYNC = "watch.resync"
    RELAY_SHIP = "relay.ship"
    RELAY_INGEST = "relay.ingest"
    # edge delivery tier (frontend <-> client sessions)
    EDGE_CONNECT = "edge.connect"      # session established (delta/snapshot)
    EDGE_SNAPSHOT = "edge.snapshot"    # snapshot re-served from the edge
    EDGE_COALESCE = "edge.coalesce"    # update superseded by a newer one
    EDGE_DROP = "edge.drop"            # update shed by bounded-buffer-drop
    EDGE_DISCONNECT = "edge.disconnect"
    # terminals
    CACHE_APPLY = "cache.apply"        # pubsub invalidation applied
    WATCH_APPLY = "watch.apply"        # linked-cache apply
    EDGE_DELIVER = "edge.deliver"      # update handed to an edge client
    # work-queue task lifecycle
    TASK_ENQUEUE = "task.enqueue"
    TASK_COMPLETE = "task.complete"
    # reconciliation control plane (repro.reconcile; key=None — these
    # are control events joined to corruption injections by their
    # ``scope`` attr, not to update chains)
    RECONCILE_PLAN = "reconcile.plan"          # divergence observed, op claimed
    RECONCILE_REPAIR = "reconcile.repair"      # op completed: scope legal again
    RECONCILE_CAS_REJECT = "reconcile.cas_reject"  # lost the claim race
    RECONCILE_TIMEOUT = "reconcile.timeout"    # per-op deadline expired
    RECONCILE_GIVEUP = "reconcile.giveup"      # retry budget exhausted (ERROR)
    CORRUPT_INJECT = "corrupt.inject"          # StateCorruptor mutated state
    # causal delivery tier (repro.causal; key/version = the stamped
    # update, so these hops join the same chains as the data hops)
    CAUSAL_STAMP = "causal.stamp"        # dep metadata minted at commit
    CAUSAL_HELD = "causal.held"          # delivery parked on unmet deps
    CAUSAL_RELEASED = "causal.released"  # deps arrived; delivery resumed
    CAUSAL_DEADLINE = "causal.deadline"  # bounded hold expired; delivered anyway


@dataclass(frozen=True)
class TraceContext:
    """Identity of one traced update: row key + commit version."""

    key: str
    version: int

    @staticmethod
    def from_payload(key: Optional[str], payload: Any) -> Optional["TraceContext"]:
        """Recover the context carried in-band by a pubsub message
        (row key + ``version`` payload field); None if absent."""
        if key is None or not isinstance(payload, dict):
            return None
        version = payload.get("version")
        if not isinstance(version, int):
            return None
        return TraceContext(key=key, version=version)


def payload_version(payload: Any) -> Optional[int]:
    """The in-band commit version of a pubsub payload, if present."""
    if isinstance(payload, dict):
        version = payload.get("version")
        if isinstance(version, int):
            return version
    return None


class TraceSampler:
    """Deterministic per-session trace sampling for edge scale.

    At E14 scale (100k-1M sessions) tracing every delivery would
    dominate run memory, so the edge session table samples *sessions*,
    not events: a session is either fully traced or carries
    ``tracer=None`` and skips every tracing branch.  Sampling by
    ``sid % every`` is deterministic (no RNG draw — the schedule is
    untouched) and stable across runs, and sampling whole sessions
    keeps each sampled delivery chain complete for latency analysis.

    ``every=1`` (the default) traces everything — existing experiments
    stay byte-identical.
    """

    __slots__ = ("every",)

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError("sample rate must be >= 1")
        self.every = every

    def keep(self, index: int) -> bool:
        """Whether the session occupying slot ``index`` is traced."""
        return index % self.every == 0


class Span:
    """A timed hop: opened now, one event emitted at :meth:`end`.

    The event carries ``start`` and ``duration`` attrs (sim seconds), so
    a span costs exactly one log entry.  Used for hops with real extent
    (CDC publish latency, task processing); instantaneous hops use
    :meth:`Tracer.record` directly.
    """

    __slots__ = ("_tracer", "hop", "component", "key", "version", "attrs",
                 "started_at", "ended")

    def __init__(
        self,
        tracer: "Tracer",
        hop: str,
        component: str,
        key: Optional[str] = None,
        version: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        self._tracer = tracer
        self.hop = hop
        self.component = component
        self.key = key
        self.version = version
        self.attrs = attrs
        self.started_at = tracer.sim.now()
        self.ended = False

    def end(self, **extra: Any) -> None:
        """Close the span and emit its event (idempotent)."""
        if self.ended:
            return
        self.ended = True
        now = self._tracer.sim.now()
        attrs = dict(self.attrs)
        attrs.update(extra)
        attrs["start"] = self.started_at
        attrs["duration"] = now - self.started_at
        self._tracer.record(
            self.hop, self.component, key=self.key, version=self.version, **attrs
        )


class Tracer:
    """Mints trace events on the sim clock into an :class:`EventLog`.

    One tracer per experiment configuration.  Thread it into the
    components under test via their ``tracer=`` parameters, attach it to
    the producer store with :meth:`observe_store` (which mints the
    ``store.commit`` root span for every write), and reconstruct chains
    afterwards with :class:`~repro.obs.index.TraceIndex`.
    """

    def __init__(
        self,
        sim: Simulation,
        metrics: Optional[MetricsRegistry] = None,
        max_events: int = 1_000_000,
        name: str = "trace",
    ) -> None:
        self.sim = sim
        self.metrics = metrics or MetricsRegistry()
        self.name = name
        self.log = EventLog(max_events=max_events)
        self._seq = 0

    def record(
        self,
        hop: str,
        component: str,
        key: Optional[str] = None,
        version: Optional[int] = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Append one hop event stamped with the current sim time.

        ``attrs`` values must be JSON-serializable scalars (strings,
        numbers, bools, None) to keep the JSONL export deterministic.
        """
        event = TraceEvent(
            seq=self._seq,
            t=self.sim.now(),
            hop=hop,
            component=component,
            key=key,
            version=version,
            attrs=attrs,
        )
        self._seq += 1
        self.log.append(event)
        self.metrics.counter(f"obs.{self.name}.events").inc()
        return event

    def span(
        self,
        hop: str,
        component: str,
        key: Optional[str] = None,
        version: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a timed :class:`Span` at the current sim time."""
        return Span(self, hop, component, key=key, version=version, **attrs)

    # ------------------------------------------------------------------
    # producer-side root spans

    def observe_store(self, store, component: str = "store") -> Callable[[], None]:
        """Mint a ``store.commit`` event per key write of every future
        commit of ``store`` (tails its :class:`~repro.storage.history.
        ChangeHistory`); returns a cancel function.

        Attach *after* any prefill so traces cover only experiment
        traffic.
        """

        def on_commit(commit) -> None:
            size = len(commit.writes)
            for key, _mutation in commit.writes:
                self.record(
                    hops.COMMIT, component,
                    key=key, version=commit.version, txn_size=size,
                )

        return store.history.tail(on_commit)

    # ------------------------------------------------------------------
    # convenience

    def events(self):
        return self.log.events()

    def to_jsonl(self) -> str:
        return self.log.to_jsonl()
