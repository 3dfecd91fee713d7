"""E2 — §3.1: backlogs grow unboundedly; GC silently loses data;
watch detects lag and recovers programmatically.

The paper's motivating incident: "an actual consumer was unavailable
for multiple days because its data center was under maintenance",
producing a backlog that made cache invalidation useless, and retention
GC that deletes unprocessed messages "without notifying the
application or allowing it to recover".

Setup: a producer updates keys continuously.  One consumer pipeline
suffers an outage of D hours against a retention window of R hours;
we sweep D/R.

- pubsub: the subscription accumulates backlog; once the outage
  exceeds retention, GC deletes unconsumed messages.  The consumer
  receives **no signal** (``lost_silently`` is measured by the
  experiment's omniscience, not by the application), and after
  recovery its replayed state is permanently missing updates.
- watch: the watch system's bounded soft state evicts, the watcher's
  resync fires, and the linked cache recovers by snapshot+re-watch.
  Final state is complete; recovery time is measured.
"""

from __future__ import annotations

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.stream import WatcherConfig
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.core.bridge import DirectIngestBridge
from repro.pubsub.broker import Broker, BrokerConfig
from repro.pubsub.consumer import Consumer
from repro.pubsub.log import RetentionPolicy
from repro.pubsub.subscription import SubscriptionConfig
from repro.sim.clock import hours
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    outage_hours=(2.0, 6.0, 12.0, 24.0),
    retention_hours: float = 8.0,
    update_rate: float = 1.0,
    num_keys: int = 200,
    seed: int = 23,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E2 backlog growth and silent GC loss (§3.1)",
        claim="pubsub loses unconsumed messages to retention GC without "
              "notifying the consumer; watch signals resync and the "
              "consumer recovers to a complete state programmatically",
    )
    table = result.new_table(
        "outage sweep",
        ["system", "outage_h", "retention_h", "updates", "lost_silently",
         "consumer_notified", "peak_backlog", "missing_keys", "final_state_complete",
         "recovery_s"],
    )

    for outage_h in outage_hours:
        outage = hours(outage_h)
        start_outage = hours(1.0)
        run_until = start_outage + outage + hours(4.0)

        # ------------------------------ pubsub ------------------------
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        broker = Broker(sim, BrokerConfig(gc_interval=60.0))
        broker.create_topic(
            "updates", num_partitions=1,
            retention=RetentionPolicy(max_age=hours(retention_hours)),
        )
        from repro.cdc.publisher import CdcPublisher

        CdcPublisher(sim, store.history, broker, "updates")
        group = broker.consumer_group(
            "updates", "mirror", SubscriptionConfig(ack_timeout=120.0)
        )
        mirror = {}

        def handler(message):
            mirror[message.key] = message.payload["value"]
            return True

        consumer = Consumer(sim, "mirror-0", handler=handler, service_time=0.001)
        group.join(consumer)
        writer = WriteStream(
            sim, store, UniformKeys(sim, key_universe(num_keys)), rate=update_rate
        )
        writer.start()
        # cold keys: written exactly once, early in the outage — the
        # rarely-updated objects whose only invalidation GC destroys
        def write_cold():
            for i in range(50):
                store.put(f"cold/{i:04d}", i)

        sim.call_at(start_outage + hours(1.0), write_cold)
        peak_backlog = 0

        def sample_backlog():
            nonlocal peak_backlog
            peak_backlog = max(peak_backlog, group.backlog())
            sim.call_after(300.0, sample_backlog)

        sample_backlog()
        sim.call_at(start_outage, consumer.crash)
        sim.call_at(start_outage + outage, consumer.recover)
        # the last writes to many keys land during the outage and are
        # never repeated — exactly the updates a GC'd log cannot replay
        sim.call_at(start_outage + outage * 0.75, writer.stop)
        sim.run(until=run_until)
        expected = dict(store.scan())
        missing = sum(1 for k, v in expected.items() if mirror.get(k) != v)
        table.add(
            system="pubsub", outage_h=outage_h, retention_h=retention_hours,
            updates=writer.writes,
            lost_silently=group.subscription.lost_to_gc,
            consumer_notified=False,
            peak_backlog=peak_backlog,
            missing_keys=missing,
            final_state_complete=(missing == 0),
            recovery_s=float("nan"),
        )

        # ------------------------------ watch -------------------------
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        # soft-state budget chosen to evict at roughly the same horizon
        # as the pubsub retention window
        buffer_events = max(100, int(update_rate * hours(retention_hours)))
        ws = WatchSystem(
            sim,
            WatchSystemConfig(
                max_buffered_events=buffer_events,
                watcher_defaults=WatcherConfig(max_backlog=buffer_events * 2),
            ),
        )
        DirectIngestBridge(sim, store.history, ws, progress_interval=30.0)

        snapshot_fn = store_snapshot(store)

        cache = LinkedCache(
            sim, ws, snapshot_fn, KeyRange.all(),
            config=LinkedCacheConfig(snapshot_latency=5.0),
            name="mirror",
        )
        cache.start()
        writer = WriteStream(
            sim, store, UniformKeys(sim, key_universe(num_keys)), rate=update_rate
        )
        writer.start()

        def write_cold():
            for i in range(50):
                store.put(f"cold/{i:04d}", i)

        sim.call_at(start_outage + hours(1.0), write_cold)

        # the outage: the watcher is unreachable, then resumes from its
        # last known version — the watch system decides whether that is
        # still serviceable (catch-up) or stale (resync)
        sim.call_at(start_outage, cache.suspend)
        sim.call_at(start_outage + outage, cache.resume)
        sim.call_at(start_outage + outage * 0.75, writer.stop)
        sim.run(until=run_until)
        expected = dict(store.scan())
        got = cache.data.items_latest(KeyRange.all())
        missing = sum(1 for k, v in expected.items() if got.get(k) != v)
        recovery = cache.recovery_times[-1] if cache.recovery_times else 0.0
        table.add(
            system="watch", outage_h=outage_h, retention_h=retention_hours,
            updates=writer.writes,
            lost_silently=0,
            consumer_notified=(cache.resync_count > 0),
            peak_backlog=ws.soft_state_peak_events,
            missing_keys=missing,
            final_state_complete=(missing == 0),
            recovery_s=recovery,
        )

    result.notes.append(
        "pubsub rows with outage > retention lose messages with "
        "consumer_notified=no and final_state_complete=no; watch rows "
        "always end complete, notified via resync when the outage "
        "exceeded the soft-state window."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    outage_hours=(2.0, 12.0),
    update_rate=0.5,
    num_keys=100,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Retention GC loses data silently; watch resyncs."""
    table = result.table("outage sweep")
    for outage in params["outage_hours"]:
        pubsub = next(
            r for r in table.rows
            if r["system"] == "pubsub" and r["outage_h"] == outage
        )
        watch = next(
            r for r in table.rows
            if r["system"] == "watch" and r["outage_h"] == outage
        )
        # watch always ends complete and never loses silently
        assert watch["lost_silently"] == 0, outage
        assert watch["final_state_complete"], outage
        if outage > params["retention_hours"]:
            # pubsub lost messages, told nobody, and ended incomplete
            assert pubsub["lost_silently"] > 0, outage
            assert not pubsub["consumer_notified"], outage
            assert not pubsub["final_state_complete"], outage
            # watch was *notified* (resync) and recovered
            assert watch["consumer_notified"], outage
        else:
            # within retention both recover fully
            assert pubsub["final_state_complete"], outage
