"""E5 — §3.2.3: event ingestion and fanout under a slow consumer path.

Receivers "are expected to get all events from the publisher promptly
to enable downstream analysis, such as fraud detection or sensor-based
alerting.  However ... head-of-line blocking can occur and large
backlogs can develop."

Setup: sensors emit events; most are cheap to process, but events from
one pathological sensor group take ~1000x longer (a poisoned analysis
path).  A single consumer pipeline handles all sensors.

- pubsub: the consumer group's FIFO delivery forces cheap events to
  queue behind expensive ones — p99 delivery-to-processing latency for
  *unaffected* sensors explodes, and with bounded retention the backlog
  turns into silent loss.
- watch over an ingestion store: the consumer watches the event store
  and *chooses* what to process next (cheap alerts first, poisoned
  sensors deprioritized); unaffected sensors stay fast, and nothing is
  lost because the store — not the notification channel — is the
  source of truth for catch-up.
"""

from __future__ import annotations

from typing import List

from repro._types import KEY_MAX, KEY_MIN
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.core.api import FnWatchCallback
from repro.core.store_watch import StoreWatch
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.log import RetentionPolicy
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.sim.kernel import Simulation, Timeout
from repro.sim.metrics import Histogram
from repro.storage.timeseries import IngestionStore


def run(
    event_rate: float = 200.0,
    # utilization ~0.8: both pipelines CAN finish; the difference is
    # purely who waits behind the poison events
    poison_fraction: float = 0.004,
    cheap_work: float = 0.002,
    poison_work: float = 1.0,
    duration: float = 60.0,
    drain: float = 60.0,
    num_sensors: int = 50,
    seed: int = 67,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E5 ingestion fanout with a poisoned path (§3.2.3)",
        claim="pubsub FIFO delivery head-of-line blocks cheap events "
              "behind expensive ones; watching the ingestion store lets "
              "the consumer prioritize, keeping unaffected events fast",
    )
    table = result.new_table(
        "pipelines",
        ["system", "events", "cheap_done", "cheap_p50_s", "cheap_p99_s",
         "poison_done", "backlog_end"],
    )
    poison_sensor = "sensor-00"  # all poison comes from one sensor

    def make_events(sim, emit):
        def gen():
            n = 0
            deadline = sim.now() + duration
            while sim.now() < deadline:
                sensor = f"sensor-{sim.rng.randrange(num_sensors):02d}"
                poison = (
                    sensor == poison_sensor
                    and sim.rng.random() < poison_fraction * num_sensors
                )
                emit(sensor, {"n": n, "t": sim.now(), "poison": poison})
                n += 1
                yield Timeout(1.0 / event_rate)

        sim.spawn(gen(), name="sensors")

    # ------------------------------ pubsub -----------------------------
    sim = Simulation(seed=seed)
    broker = Broker(sim)
    broker.create_topic("events", num_partitions=4,
                        retention=RetentionPolicy(max_age=3600.0))
    group = broker.consumer_group(
        "events", "analysis",
        SubscriptionConfig(routing=RoutingPolicy.PARTITION, ack_timeout=3600.0),
    )
    cheap_latency = Histogram("cheap")
    done = {"cheap": 0, "poison": 0}

    def service_time(message):
        return poison_work if message.payload["poison"] else cheap_work

    def handler(message):
        if message.payload["poison"]:
            done["poison"] += 1
        else:
            done["cheap"] += 1
            cheap_latency.observe(sim.now() - message.payload["t"])
        return True

    consumer = Consumer(sim, "analysis-0", handler=handler,
                        service_time_fn=service_time)
    group.join(consumer)
    make_events(sim, lambda sensor, payload: broker.publish("events", sensor, payload))
    sim.run(until=duration + drain)
    table.add(
        system="pubsub", events=broker.topic("events").total_messages_published,
        cheap_done=done["cheap"], cheap_p50_s=cheap_latency.p50,
        cheap_p99_s=cheap_latency.p99, poison_done=done["poison"],
        backlog_end=group.backlog(),
    )

    # ------------------------------ watch ------------------------------
    sim = Simulation(seed=seed)
    store = IngestionStore(clock=sim.now)
    watch = StoreWatch(sim, store)
    cheap_latency_w = Histogram("cheap")
    done_w = {"cheap": 0, "poison": 0}
    #: the consumer's own queues: it drains cheap first (prioritization)
    cheap_queue: List = []
    poison_queue: List = []

    def on_event(event):
        payload = event.mutation.value
        (poison_queue if payload["poison"] else cheap_queue).append(payload)

    watch.watch(KEY_MIN, KEY_MAX, 0, FnWatchCallback(on_event=on_event))

    def worker():
        while True:
            if cheap_queue:
                payload = cheap_queue.pop(0)
                yield Timeout(cheap_work)
                done_w["cheap"] += 1
                cheap_latency_w.observe(sim.now() - payload["t"])
            elif poison_queue:
                payload = poison_queue.pop(0)
                yield Timeout(poison_work)
                done_w["poison"] += 1
            else:
                yield Timeout(0.005)

    sim.spawn(worker(), name="analysis")
    make_events(sim, lambda sensor, payload: store.append(sensor, payload))
    sim.run(until=duration + drain)
    table.add(
        system="watch", events=len(store),
        cheap_done=done_w["cheap"], cheap_p50_s=cheap_latency_w.p50,
        cheap_p99_s=cheap_latency_w.p99, poison_done=done_w["poison"],
        backlog_end=len(cheap_queue) + len(poison_queue),
    )

    result.notes.append(
        "identical total work in both pipelines; the watch consumer "
        "reorders (cheap first) because the events sit in a queryable "
        "store rather than a delivery pipe — §4.3's 'prioritize "
        "entities, fully mitigating head-of-line blocking'."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    event_rate=100.0,
    poison_fraction=0.02,
    duration=20.0,
    drain=30.0,
    num_sensors=20,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Cheap events pay for poison ones only under pubsub FIFO."""
    table = result.table("pipelines")
    pubsub = table.row_by("system", "pubsub")
    watch = table.row_by("system", "watch")
    # identical workloads: same events, same completed counts
    assert pubsub["events"] == watch["events"]
    assert pubsub["cheap_done"] == watch["cheap_done"]
    # head-of-line blocking: cheap events pay for poison ones under
    # pubsub FIFO; the watch consumer prioritizes around them
    assert pubsub["cheap_p99_s"] > 5 * watch["cheap_p99_s"]
    assert watch["cheap_p99_s"] < 2.0
