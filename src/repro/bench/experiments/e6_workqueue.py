"""E6 — §3.2.4/§4.3: affinitized work with dynamically sharded workers.

A stream of keyed tasks (with key locality, occasional poison tasks,
and worker churn halfway through) runs against:

- ``pubsub-random`` — consumer group, random routing: no affinity at
  all; every worker's state cache thrashes.
- ``pubsub-key``    — consumer group, key-hash routing: affine while
  membership is stable, but the §3.1 complaint holds: the *whole*
  key-to-worker map reshuffles on any membership change, and the
  mapping can never follow an application auto-sharder.  FIFO delivery
  also head-of-line blocks normal tasks behind poison ones.
- ``watch``         — task rows in a store, workers auto-sharded over
  key ranges, watching their ranges, prioritizing normal tasks.  A
  membership change moves only the affected ranges, and poison tasks
  cannot block normal ones.

Measured: completed tasks, warm-state fraction (affinity), p99 latency
of normal tasks (HoL), and completion guarantees across the churn.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentResult, signature_defaults
from repro.core.bridge import PartitionedIngestBridge, even_ranges
from repro.core.watch_system import WatchSystem
from repro.pubsub.broker import Broker
from repro.pubsub.subscription import RoutingPolicy
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workqueue.pubsub_worker import PubsubWorkerPool
from repro.workqueue.watch_worker import WatchWorkerPool
from repro.workloads.generators import TaskStream, key_universe


def run(
    systems=("pubsub-random", "pubsub-key", "watch"),
    num_workers: int = 4,
    num_keys: int = 120,
    task_rate: float = 60.0,
    work: float = 0.01,
    poison_fraction: float = 0.01,
    poison_work: float = 2.0,
    duration: float = 60.0,
    drain: float = 40.0,
    churn: bool = True,
    seed: int = 71,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E6 work queueing and balancing (§3.2.4 / §4.3)",
        claim="consumer groups cannot give dynamically sharded affinity "
              "(state caches thrash, wholesale reshuffles on churn) and "
              "FIFO delivery head-of-line blocks; watch + auto-sharding "
              "keeps state warm and prioritizes around poison tasks",
    )
    table = result.new_table(
        "systems",
        ["system", "submitted", "completed", "warm_frac",
         "normal_p50_s", "normal_p99_s", "all_done"],
    )

    for system in systems:
        sim = Simulation(seed=seed)
        if system.startswith("pubsub"):
            broker = Broker(sim)
            routing = (
                RoutingPolicy.KEY if system == "pubsub-key"
                else RoutingPolicy.RANDOM
            )
            pool = PubsubWorkerPool(
                sim, broker, num_workers=num_workers, routing=routing,
            )
            submit = pool.submit
            if churn:
                sim.call_at(duration * 0.5, lambda: pool.crash_worker("worker-0"))
                sim.call_at(
                    duration * 0.5,
                    lambda: pool.add_worker(f"worker-{num_workers}"),
                )
        else:
            store = MVCCStore(clock=sim.now)
            ws = WatchSystem(sim)
            PartitionedIngestBridge(
                sim, store.history, ws, even_ranges(8), progress_interval=0.2
            )
            sharder = AutoSharder(
                sim, [f"worker-{i}" for i in range(num_workers)],
                AutoSharderConfig(notify_latency=0.02, notify_jitter=0.02),
            )
            pool = WatchWorkerPool(
                sim, store, ws, sharder, num_workers=num_workers,
            )
            submit = pool.submit
            if churn:
                sim.call_at(duration * 0.5, lambda: pool.crash_worker("worker-0"))
                sim.call_at(
                    duration * 0.5,
                    lambda: pool.add_worker(f"worker-{num_workers}"),
                )

        stream = TaskStream(
            sim, submit, key_universe(num_keys), rate=task_rate,
            work=work, poison_fraction=poison_fraction,
            poison_work=poison_work, locality=0.7,
        )
        stream.start()
        sim.call_at(duration, stream.stop)
        sim.run(until=duration + drain)

        stats = pool.stats
        table.add(
            system=system,
            submitted=stream.submitted,
            completed=stats.completed,
            warm_frac=round(stats.warm_fraction, 3),
            normal_p50_s=stats.normal_latency.p50,
            normal_p99_s=stats.normal_latency.p99,
            all_done=(stats.completed >= stream.submitted),
        )

    result.notes.append(
        "warm_frac is the fraction of tasks finding their key's state "
        "cached.  Churn at t=duration/2: one worker crashes, one joins. "
        "pubsub-key reshuffles every key's affinity at that moment; the "
        "auto-sharder moves only the dead worker's ranges."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    systems=("pubsub-key", "watch"),
    num_workers=3,
    num_keys=60,
    task_rate=40.0,
    duration=25.0,
    drain=25.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Affinity keeps state warm; watch also dodges head-of-line
    blocking.  Pubsub rows are asserted when ``systems`` include them."""
    rows = {row["system"]: row for row in result.table("systems").rows}
    # keyed on what was requested: a requested row that is missing
    # raises KeyError instead of passing unasserted
    asked = params["systems"]
    watch = rows["watch"]
    # everything completes (at-least-once + idempotent)
    assert watch["all_done"]
    if "pubsub-key" in asked:
        key_routed = rows["pubsub-key"]
        assert key_routed["all_done"]
        # watch + auto-sharding keeps state at least as warm as
        # key-hash routing (which reshuffled wholesale at the churn point)
        assert watch["warm_frac"] >= key_routed["warm_frac"] - 0.02
        # and avoids head-of-line blocking behind poison tasks
        assert watch["normal_p99_s"] < key_routed["normal_p99_s"]
    if "pubsub-random" in asked:
        # without affinity the state cache is markedly colder
        assert watch["warm_frac"] > rows["pubsub-random"]["warm_frac"] + 0.05
