#!/usr/bin/env python3
"""Event ingestion for fraud alerting — §2/§3.2.3/§4.3 end to end.

Payment events stream into an ingestion store (the time-series-style
store the paper proposes instead of a pubsub topic).  Three consumers
share it, each in a different way:

1. a *fraud scorer* watching the whole stream and filtering by amount
   in its own callback (the paper's watch contract carries no event
   filter, §4.2.1);
2. a *regional dashboard* watching one key range (its merchants) and
   serving snapshot-consistent "state of my region" queries off its
   knowledge regions;
3. a *batch auditor* that shows up late and simply queries the store
   for the window it missed — the catch-up path pubsub cannot offer
   (the store is right there; no replay API, no GC cliff).

Run:  python examples/fraud_alerts.py
"""

from repro._types import KeyRange
from repro.core.api import FnWatchCallback
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.core.store_watch import StoreWatch
from repro.sim.kernel import Simulation, Timeout
from repro.storage.timeseries import IngestionStore


def main() -> None:
    sim = Simulation(seed=5)
    events = IngestionStore(clock=sim.now, name="payments")
    watch = StoreWatch(sim, events)

    # ------------------------------------------------------------- #
    # consumer 1: fraud scorer — whole-stream watch, filtered by amount
    alerts = []

    def score(event):
        payment = event.mutation.value
        if payment["amount"] > 900:
            alerts.append((sim.now(), event.key, payment["amount"]))

    watch.watch_range(KeyRange.all(), 0, FnWatchCallback(on_event=score))

    # ------------------------------------------------------------- #
    # consumer 2: regional dashboard for merchants f..n
    region = KeyRange("f", "n")

    def snapshot_fn(key_range):
        return events.last_version, events.snapshot_latest(key_range)

    dashboard = LinkedCache(
        sim, watch, snapshot_fn, region,
        LinkedCacheConfig(snapshot_latency=0.01), name="dashboard",
    )
    dashboard.start()

    # ------------------------------------------------------------- #
    # the payment stream
    merchants = [f"{chr(ord('a') + i % 20)}-shop-{i % 7}" for i in range(40)]

    def producers():
        n = 0
        while sim.now() < 60.0:
            merchant = merchants[sim.rng.randrange(len(merchants))]
            amount = sim.rng.randrange(1, 1200)
            events.append(merchant, {"amount": amount, "n": n})
            n += 1
            yield Timeout(0.02)

    sim.spawn(producers())
    sim.run(until=61.0)

    # ------------------------------------------------------------- #
    # consumer 3: the late batch auditor — plain store queries
    window = events.window(30.0, 60.0)
    big_in_window = [e for e in window if e.payload["amount"] >= 500]

    total = len(events)
    print(f"ingested {total} payment events from {len(merchants)} merchants")
    print(f"fraud scorer: watched all traffic, filtered by amount in its "
          f"callback, raised {len(alerts)} alerts (>900)")
    regional = dashboard.data.items_latest()
    version = dashboard.best_snapshot_version()
    print(f"dashboard: {len(regional)} merchants in [f, n), "
          f"snapshot-consistent at v{version}")
    snapshot = dashboard.snapshot_read(region, version)
    assert snapshot is not None and snapshot == events.snapshot_latest(region)
    print(f"auditor (arrived late): queried the store directly — "
          f"{len(window)} events in [30s, 60s), {len(big_in_window)} "
          f"high-value, zero lost to retention")
    print("\nOne store, three consumption styles — no topics, no "
          "offsets, no replay API (§4.3).")


if __name__ == "__main__":
    main()
