"""E2b — §3.1: compaction defers but does not eliminate loss.

"Compaction allows applications to configure a recent window for which
every version is kept and before which only the last version is
maintained.  Unfortunately, without notification, subscribers do not
discover that unseen events have been compacted."

Setup: a keyed topic with compaction window W; a consumer lags behind
by L (slow consumer).  We sweep L against W.

- L < W: the consumer sees every version (compaction invisible).
- L > W: intermediate versions the consumer never saw are compacted
  away; it observes value jumps with no gap signal.  For use cases that
  need every transition (audit, incremental materialization, CDC
  deltas), those missing transitions are correctness loss.

The watch comparison: the watch model never promises every historical
version after a lag — it *tells* the consumer (resync) and hands it a
consistent snapshot, so the consumer knows its delta stream has a gap
and can act (here: it marks a checkpoint instead of silently applying a
jump).
"""

from __future__ import annotations

from typing import List

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.core.bridge import DirectIngestBridge
from repro.core.stream import WatcherConfig
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.pubsub.broker import Broker, BrokerConfig
from repro.pubsub.consumer import Consumer
from repro.pubsub.log import CompactionPolicy, RetentionPolicy
from repro.pubsub.subscription import SubscriptionConfig
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    lag_seconds=(50.0, 200.0, 800.0),
    compaction_window: float = 100.0,
    update_rate: float = 20.0,
    num_keys: int = 40,
    duration: float = 1200.0,
    seed: int = 31,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E2b compaction loss (§3.1)",
        claim="with consumer lag beyond the compaction window, "
              "intermediate versions vanish without notification; the "
              "watch model reports the gap via resync",
    )
    table = result.new_table(
        "lag sweep",
        ["system", "lag_s", "window_s", "versions_written",
         "versions_observed", "transitions_missed", "gap_signalled"],
    )

    for lag in lag_seconds:
        # -------------------- pubsub with compaction -------------------
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        broker = Broker(sim, BrokerConfig(compaction_interval=10.0))
        broker.create_topic(
            "updates", num_partitions=1,
            retention=RetentionPolicy(),  # unbounded: isolate compaction
            compaction=CompactionPolicy(recent_window=compaction_window),
        )
        from repro.cdc.publisher import CdcPublisher

        CdcPublisher(sim, store.history, broker, "updates")
        group = broker.consumer_group(
            "updates", "lagged",
            SubscriptionConfig(ack_timeout=lag * 4 + 60.0),
        )
        seen_versions: List[int] = []

        def handler(message):
            seen_versions.append(message.payload["version"])
            return True

        consumer = Consumer(sim, "lagged-0", handler=handler, service_time=0.001)
        group.join(consumer)
        # create the lag: consumer is down for `lag`, then drains
        consumer.crash()
        sim.call_at(lag, consumer.recover)
        writer = WriteStream(
            sim, store, UniformKeys(sim, key_universe(num_keys)), rate=update_rate
        )
        writer.start()
        sim.call_at(duration * 0.7, writer.stop)
        sim.run(until=duration)
        written = store.commit_count
        observed = len(set(seen_versions))
        table.add(
            system="pubsub", lag_s=lag, window_s=compaction_window,
            versions_written=written, versions_observed=observed,
            transitions_missed=written - observed,
            gap_signalled=False,
        )

        # -------------------- watch ------------------------------------
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        # soft state sized to the compaction window's worth of events
        buffer_events = max(50, int(update_rate * compaction_window))
        ws = WatchSystem(
            sim,
            WatchSystemConfig(
                max_buffered_events=buffer_events,
                watcher_defaults=WatcherConfig(max_backlog=10 * buffer_events),
            ),
        )
        DirectIngestBridge(sim, store.history, ws, progress_interval=5.0)
        writer = WriteStream(
            sim, store, UniformKeys(sim, key_universe(num_keys)), rate=update_rate
        )
        writer.start()
        sim.call_at(duration * 0.7, writer.stop)

        # a consumer arriving `lag` late and asking for history from
        # version 0: the watch system either replays everything (soft
        # state still covers it) or signals resync — never a silent gap
        observed_w = {"events": 0}
        gap = {"resync": False}
        from repro.core.api import FnWatchCallback

        callback = FnWatchCallback()

        def on_event(event):
            observed_w["events"] += 1

        def on_resync():
            # the consumer now *knows* it has a gap: checkpoint from a
            # snapshot and continue from the snapshot version
            gap["resync"] = True
            version = store.last_version
            ws.watch_range(
                KeyRange.all(), version, callback,
                config=WatcherConfig(max_backlog=10 * buffer_events),
            )

        callback.on_event = on_event
        callback.on_resync = on_resync

        def start_lagged_watch():
            ws.watch_range(
                KeyRange.all(), 0, callback,
                config=WatcherConfig(max_backlog=10 * buffer_events),
            )

        sim.call_at(lag, start_lagged_watch)
        sim.run(until=duration)
        written = store.commit_count
        table.add(
            system="watch", lag_s=lag, window_s=compaction_window,
            versions_written=written,
            versions_observed=observed_w["events"],
            transitions_missed=written - observed_w["events"],
            gap_signalled=gap["resync"],
        )

    result.notes.append(
        "pubsub rows with lag > window miss transitions with "
        "gap_signalled=no; the watch rows either replay everything or "
        "signal the gap (resync) so the consumer can checkpoint from a "
        "snapshot instead of silently applying a jump."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    lag_seconds=(50.0, 400.0),
    update_rate=10.0,
    num_keys=20,
    duration=700.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Compaction loses transitions without notification."""
    table = result.table("lag sweep")
    for lag in params["lag_seconds"]:
        pubsub = next(
            r for r in table.rows
            if r["system"] == "pubsub" and r["lag_s"] == lag
        )
        watch = next(
            r for r in table.rows
            if r["system"] == "watch" and r["lag_s"] == lag
        )
        if lag > params["compaction_window"]:
            # compaction silently removed transitions from pubsub
            assert pubsub["transitions_missed"] > 0, lag
            assert not pubsub["gap_signalled"], lag
            # watch told the consumer it had a gap
            assert watch["gap_signalled"], lag
        else:
            assert pubsub["transitions_missed"] == 0, lag
            assert watch["transitions_missed"] == 0, lag
