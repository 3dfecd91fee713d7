"""E8 — §4.4 efficiency: hard state vs soft state.

"The watch design avoids the need for an additional hard state message
log and relies instead on the existing hard state provider store."

The same CDC workload runs through both pipelines and we account bytes:

- the producer store's durable writes (paid by both models — it is the
  source of truth);
- pubsub: the broker's partition logs are a *second* durable copy of
  every change (plus DLQ/replay state when used) — write amplification;
- watch: the watch system holds a bounded in-memory buffer.  To prove
  it is soft state (not just "state we decided not to count"), the
  experiment **destroys it mid-run** (`wipe()`); consumers resync from
  the store and the run ends with complete, correct consumer state and
  zero extra durable bytes.

The second table sweeps consumer fanout: pubsub's durable bytes are
per-topic (shared), but its delivery work and the watch system's are
both per-consumer; the hard-state gap is what §4.4 highlights.
"""

from __future__ import annotations

from repro._types import KeyRange
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.bench.worlds import store_snapshot
from repro.core.bridge import DirectIngestBridge
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.watch_system import WatchSystem, WatchSystemConfig
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.log import RetentionPolicy
from repro.pubsub.subscription import SubscriptionConfig
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


def run(
    num_keys: int = 300,
    update_rate: float = 100.0,
    duration: float = 60.0,
    drain: float = 20.0,
    wipe_at: float = 0.5,
    seed: int = 89,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E8 hard-state write amplification vs soft state (§4.4)",
        claim="pubsub persists a second durable copy of every change; "
              "the watch system's state is soft — destroy it mid-run "
              "and consumers recover completely from the store",
    )
    table = result.new_table(
        "pipelines",
        ["system", "store_bytes", "extra_durable_bytes", "amplification",
         "soft_state_peak_bytes", "wiped_mid_run", "consumer_complete"],
    )
    keys = key_universe(num_keys)

    # ------------------------------ pubsub -----------------------------
    sim = Simulation(seed=seed)
    store = MVCCStore(clock=sim.now)
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=4,
                        retention=RetentionPolicy(max_age=3600.0))
    from repro.cdc.publisher import CdcPublisher

    CdcPublisher(sim, store.history, broker, "cdc")
    group = broker.consumer_group("cdc", "mirror", SubscriptionConfig())
    mirror = {}

    def handler(message):
        if message.payload["op"] == "delete":
            mirror.pop(message.key, None)
        else:
            mirror[message.key] = message.payload["value"]
        return True

    group.join(Consumer(sim, "mirror-0", handler=handler, service_time=0.001))
    writer = WriteStream(sim, store, UniformKeys(sim, keys), rate=update_rate)
    writer.start()
    sim.call_at(duration, writer.stop)
    sim.run(until=duration + drain)
    expected = dict(store.scan())
    complete = all(mirror.get(k) == v for k, v in expected.items())
    table.add(
        system="pubsub",
        store_bytes=store.bytes_written,
        extra_durable_bytes=broker.hard_state_bytes,
        amplification=round(
            (store.bytes_written + broker.hard_state_bytes)
            / store.bytes_written, 2,
        ),
        soft_state_peak_bytes=0,
        wiped_mid_run=False,
        consumer_complete=complete,
    )

    # ------------------------------ watch ------------------------------
    sim = Simulation(seed=seed)
    store = MVCCStore(clock=sim.now)
    ws = WatchSystem(sim, WatchSystemConfig(max_buffered_events=20_000))
    DirectIngestBridge(sim, store.history, ws, progress_interval=1.0)

    snapshot_fn = store_snapshot(store)

    cache = LinkedCache(
        sim, ws, snapshot_fn, KeyRange.all(),
        config=LinkedCacheConfig(snapshot_latency=0.5),
        name="mirror",
    )
    cache.start()
    writer = WriteStream(sim, store, UniformKeys(sim, keys), rate=update_rate)
    writer.start()
    peak_soft = {"bytes": 0}

    def sample():
        peak_soft["bytes"] = max(peak_soft["bytes"], ws.soft_state_bytes())
        sim.call_after(1.0, sample)

    sample()
    sim.call_at(duration * wipe_at, ws.wipe)  # destroy all soft state
    sim.call_at(duration, writer.stop)
    sim.run(until=duration + drain)
    expected = dict(store.scan())
    got = cache.data.items_latest(KeyRange.all())
    complete = all(got.get(k) == v for k, v in expected.items())
    table.add(
        system="watch",
        store_bytes=store.bytes_written,
        extra_durable_bytes=0,
        amplification=1.0,
        soft_state_peak_bytes=peak_soft["bytes"],
        wiped_mid_run=True,
        consumer_complete=complete,
    )

    result.notes.append(
        "amplification = durable bytes written per source byte.  The "
        "watch pipeline's soft state was destroyed mid-run (wipe); the "
        "consumer resynced from the store and still ended complete — "
        "'this is soft state that can be recovered if deleted' (§4.2.2)."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_keys=150,
    update_rate=50.0,
    duration=25.0,
    drain=10.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Pubsub pays a second durable copy; watch's soft state is soft."""
    table = result.table("pipelines")
    pubsub = table.row_by("system", "pubsub")
    watch = table.row_by("system", "watch")
    # pubsub wrote a second durable copy of everything (and then some)
    assert pubsub["extra_durable_bytes"] > pubsub["store_bytes"]
    assert pubsub["amplification"] > 1.5
    # watch wrote zero extra durable bytes
    assert watch["extra_durable_bytes"] == 0
    # ... and its soft state is genuinely soft: it was destroyed
    # mid-run and the consumer still ended complete
    assert watch["wiped_mid_run"]
    assert watch["consumer_complete"]
    assert pubsub["consumer_complete"]  # fair baseline: no outage here
