"""CDC publisher: pushes captured change records into a pubsub topic.

Messages are published with the row key as the pubsub key, so keyed
partitioning gives the per-key ordering that the §3.2.1
"partition-serial" replication strategy depends on.  The payload
carries the mutation and source version — everything a consumer could
want; the delivery problems downstream are pubsub's, not the data's.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.cdc.capture import CdcCapture, ChangeRecord
from repro.obs.trace import hops
from repro.pubsub.broker import Broker
from repro.sim.kernel import Simulation
from repro.storage.history import ChangeHistory

#: Publishes one record: (topic, key, payload).  Defaults to the direct
#: broker call; a networked pipeline passes RemotePublisher.publish so
#: the CDC→broker hop crosses the (lossy) simulated network instead.
PublishFn = Callable[[str, Optional[str], Any], Any]

#: Publishes one commit's record group: (topic, [(key, payload), ...]).
#: Defaults to ``broker.publish_batch``; a networked pipeline passes
#: ``RemotePublisher.publish_batch`` so the whole group rides one frame.
PublishBatchFn = Callable[[str, List[Tuple[Optional[str], Any]]], Any]


class CdcPublisher:
    """Wires a store history to a pubsub topic via CDC capture."""

    def __init__(
        self,
        sim: Simulation,
        history: ChangeHistory,
        broker: Optional[Broker],
        topic: str,
        publish_latency: float = 0.001,
        publish_fn: Optional[PublishFn] = None,
        tracer=None,
        group_commit: bool = False,
        publish_batch_fn: Optional[PublishBatchFn] = None,
    ) -> None:
        if publish_latency < 0:
            raise ValueError("publish_latency must be >= 0")
        if broker is None and publish_fn is None and publish_batch_fn is None:
            raise ValueError("need a broker or an explicit publish_fn")
        if group_commit and broker is None and publish_batch_fn is None:
            raise ValueError("group_commit needs a broker or publish_batch_fn")
        self.sim = sim
        self.broker = broker
        self.topic = topic
        self.publish_latency = publish_latency
        self.tracer = tracer
        #: group-commit mode: buffer a transaction's records and publish
        #: them as ONE group (one latency, one frame) when the commit's
        #: last record arrives, instead of one publish per record
        self.group_commit = group_commit
        if publish_fn is not None:
            self._publish = publish_fn
        elif broker is not None:
            self._publish = broker.publish
        else:
            self._publish = None
        if publish_batch_fn is not None:
            self._publish_batch = publish_batch_fn
        elif broker is not None:
            self._publish_batch = broker.publish_batch
        else:
            self._publish_batch = None
        self.published = 0
        self._txn_buffer: List[Tuple[Optional[str], Any, int]] = []
        CdcCapture(history, self._on_record, tracer=tracer)

    def _on_record(self, record: ChangeRecord) -> None:
        payload = {
            "op": "delete" if record.is_delete else "put",
            "value": record.value,
            "version": record.txn_version,
            "txn_index": record.txn_index,
            "txn_size": record.txn_size,
        }
        self.published += 1
        if self.group_commit:
            # CdcCapture emits a commit's records synchronously in txn
            # order, so buffering until the last index regroups exactly
            # one transaction — never records of two interleaved commits
            self._txn_buffer.append((record.key, payload, record.txn_version))
            if record.txn_index == record.txn_size - 1:
                self._flush_txn()
            return

        def publish() -> None:
            if self.tracer is not None:
                self.tracer.record(
                    hops.CDC_PUBLISH, "cdc",
                    key=record.key, version=record.txn_version,
                    topic=self.topic,
                )
            self._publish(self.topic, record.key, payload)

        if self.publish_latency > 0:
            self.sim.post(self.publish_latency, publish)
        else:
            publish()

    def _flush_txn(self) -> None:
        buffered = self._txn_buffer
        self._txn_buffer = []
        records = [(key, payload) for key, payload, _ in buffered]

        def publish() -> None:
            if self.tracer is not None:
                for key, _payload, version in buffered:
                    self.tracer.record(
                        hops.CDC_PUBLISH, "cdc",
                        key=key, version=version,
                        topic=self.topic, n_events=len(buffered),
                    )
            self._publish_batch(self.topic, records)

        if self.publish_latency > 0:
            self.sim.post(self.publish_latency, publish)
        else:
            publish()
