"""E13 — self-stabilization: corruption injection vs the reconcile plane.

The delivery pipelines are *event*-triggered: they only ever act on
change notifications, so state mutated behind their backs — bit-rot,
operator error, a bad restore, a forged routing map — is invisible to
them forever.  This experiment makes that failure mode concrete and
then measures the repair the reconciliation plane (``repro.reconcile``)
provides:

A combined topology runs pubsub CDC replication (broker → version-
checked applier → :class:`~repro.replication.target.ReplicaStore`) and
a watch-based edge tier (frontends, durable-cursor clients, sharder-
driven placement) off one source store.  A
:class:`~repro.reconcile.corruptor.StateCorruptor` injects every
corruption class it knows at seeded random points — torn replica maps,
rewound and forged replica cursors while traffic is live, forged edge
reconnect cursors, half-open (orphaned) sessions, a stale forged
assignment — each injection traced as ``corrupt.inject``.

Two configurations:

- ``pubsub-only`` — the pipelines run alone.  Every corruption class
  leaves permanent damage: diverged replica keys, clients that
  silently skipped a gap or stopped receiving anything, a routing map
  the sharder never re-stamps.  The final state is *illegal* and
  nothing inside the pipelines ever notices.
- ``pubsub+reconciler`` — an
  :class:`~repro.reconcile.anti_entropy.AntiEntropyReconciler` (per
  key-range scope) and an
  :class:`~repro.reconcile.edge.EdgeReconciler` (per client +
  placement) tick alongside.  Because they are *level*-triggered —
  Plan compares actual state against desired every round — each class
  is detected and repaired within a bounded number of rounds, every
  repair traced as ``reconcile.repair`` and attributed by
  :meth:`~repro.obs.index.TraceIndex.repair_summary` to the injection
  it fixed.

Legality at the end of the run means: replica state equals the source
head state, every cursor (replica watermark, per-key versions, client
reconnect cursors) is within the source head, no client is stale or
holding a half-open session, and the installed assignment carries the
sharder's own generation.  The reconciler row must be legal with every
class repaired inside the round bound; the control row must not.
"""

from __future__ import annotations

import math

from repro._types import KeyRange
from repro.bench import worlds
from repro.bench.runner import ExperimentResult, signature_defaults
from repro.cdc.publisher import CdcPublisher
from repro.edge.client import EdgeClient
from repro.edge.frontend import EdgeFrontendConfig, WatchEdgeFrontend
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.obs import TraceIndex, Tracer
from repro.pubsub.broker import Broker
from repro.reconcile import (
    CORRUPTION_CLASSES,
    AntiEntropyReconciler,
    EdgeReconciler,
    StateCorruptor,
    shard_scopes,
)
from repro.reconcile.framework import TICK
from repro.replication.appliers import VersionCheckedApplier
from repro.replication.checker import SnapshotChecker
from repro.replication.target import CursorCorruption, ReplicaStore
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore
from repro.workloads.generators import UniformKeys, WriteStream, key_universe


#: classes injected after traffic stops (their damage is to data at
#: rest; injecting mid-burst would race ordinary replication catch-up)
_AT_REST = ("replica-map-tear", "replica-cursor-rewind")


def run(
    configs=("pubsub-only", "pubsub+reconciler"),
    num_frontends: int = 2,
    num_clients: int = 8,
    num_keys: int = 60,
    update_rate: float = 20.0,
    duration: float = 30.0,
    settle: float = 30.0,
    injections_per_class: int = 2,
    inject_window: float = 6.0,
    num_shards: int = 4,
    seed: int = 97,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E13 self-stabilization: arbitrary-state corruption "
                   "vs the Plan/Execute reconciliation plane",
        claim="event-triggered pipelines never notice state corrupted "
              "behind their backs (the control row ends illegal and "
              "diverged); a level-triggered reconciler plane converges "
              "every corruption class back to a checker-verified legal "
              "state within a bounded number of reconcile rounds, with "
              "every repair trace-attributed to its corruption",
    )
    convergence_table = result.new_table(
        "convergence",
        ["config", "injections", "repairs", "attributed", "cursor_faults",
         "diverged_keys", "stale_clients", "orphans", "cursors_ok",
         "placement_ok", "legal", "rounds_max"],
    )
    classes_table = result.new_table(
        "corruption classes",
        ["config", "class", "injected", "repaired", "unrepaired", "rounds"],
    )
    tracers = {}
    result.artifacts["tracers"] = tracers
    keys = key_universe(num_keys)
    client_names = [
        f"{chr(ord('a') + (26 * i) // num_clients)}c{i:02d}"
        for i in range(num_clients)
    ]

    for config_name in configs:
        with_reconciler = config_name == "pubsub+reconciler"
        sim = Simulation(seed=seed)
        store = MVCCStore(clock=sim.now)
        tracer = Tracer(sim)
        tracers[config_name] = tracer
        tracer.observe_store(store)

        # replication pipeline: CDC topic -> version-checked applier
        broker = Broker(sim, tracer=tracer)
        broker.create_topic("cdc", num_partitions=4)
        CdcPublisher(sim, store.history, broker, "cdc", tracer=tracer)
        replica = ReplicaStore()
        checker = SnapshotChecker(store)
        checker.attach_target(replica)
        applier = VersionCheckedApplier(
            sim, broker, "cdc", replica, workers=4, service_time=0.0005,
        )

        # edge tier: watch frontends, placement, durable-cursor clients
        source = worlds.edge_source(sim, store, tracer, "watch")
        frontend_config = EdgeFrontendConfig(
            session=SessionConfig(
                policy=SlowConsumerPolicy.COALESCE, max_queue=256,
                initial_credits=4, delivery_latency=0.001,
            ),
            catchup_threshold=100,
        )
        frontends = [
            WatchEdgeFrontend(
                sim, f"fe{i}", source.watch, source.snapshot,
                config=frontend_config, tracer=tracer,
            )
            for i in range(num_frontends)
        ]
        placement = SessionPlacement(sim, frontends)
        clients = worlds.stagger_connects(sim, [
            EdgeClient(
                sim, name, placement, service_time=0.002, reconnect_delay=0.3,
            )
            for name in client_names
        ], 0.5)

        writer = WriteStream(
            sim, store, UniformKeys(sim, keys), rate=update_rate,
            value_fn=lambda n: {"v": n},
        )
        writer.start()
        sim.call_at(duration, writer.stop)

        # the corruptor, and a seeded injection schedule: at-rest
        # classes land after traffic stops, the rest mid-traffic
        shards = shard_scopes(num_shards)
        corruptor = StateCorruptor(
            sim, tracer=tracer, source=store, replica=replica, shards=shards,
            clients=clients, frontends=frontends, sharder=placement.sharder,
        )
        for cls in CORRUPTION_CLASSES:
            for _ in range(injections_per_class):
                if cls in _AT_REST:
                    at = duration + 1.0 + sim.rng.uniform(0.0, inject_window)
                else:
                    at = sim.rng.uniform(0.2 * duration, 0.8 * duration)
                sim.call_at(at, lambda cls=cls: corruptor.inject(cls))

        reconcilers = []
        if with_reconciler:
            reconcilers = [
                AntiEntropyReconciler(
                    sim, store, replica, shards, checker=checker,
                    tracer=tracer,
                ),
                EdgeReconciler(
                    sim, clients, frontends,
                    head_fn=lambda store=store: store.last_version,
                    sharder=placement.sharder, tracer=tracer,
                ),
            ]
            for reconciler in reconcilers:
                reconciler.start()

        sim.run(until=duration + settle)

        # ------------------------------------------------------------------
        # legality audit against the source head
        head = store.last_version
        latest = dict(store.scan(KeyRange.all(), head))
        replica_state = replica.items()
        diverged_keys = sum(
            1 for key in set(latest) | set(replica_state)
            if replica_state.get(key) != latest.get(key)
        )
        try:
            replica.verify_cursor(head)
            replica_cursors_ok = True
        except CursorCorruption:
            replica_cursors_ok = False
        stale_clients = orphans = 0
        client_cursors_ok = True
        for client in clients:
            session = client.session
            if session is not None and session.active and not any(
                frontend.sessions.get(client.name) is session
                for frontend in frontends
            ):
                orphans += 1
            if client.cursor > head:
                client_cursors_ok = False
            client.stop()
            client.finalize()
            if client.state != latest:
                stale_clients += 1
        cursors_ok = replica_cursors_ok and client_cursors_ok
        placement_ok = (
            placement.sharder.assignment.generation
            == placement.sharder.generation
        )
        legal = (
            diverged_keys == 0 and cursors_ok and stale_clients == 0
            and orphans == 0 and placement_ok
        )

        index = TraceIndex(tracer.log)
        summary = index.repair_summary()
        rounds_max = 0
        for cls in sorted(summary["classes"]):
            row = summary["classes"][cls]
            rounds = (
                math.ceil(row["max_lag_s"] / TICK) if row["repaired"] else 0
            )
            rounds_max = max(rounds_max, rounds)
            classes_table.add(
                config=config_name,
                **{"class": cls},
                injected=row["injected"],
                repaired=row["repaired"],
                unrepaired=row["unrepaired"],
                rounds=rounds,
            )
        convergence_table.add(
            config=config_name,
            injections=corruptor.injections,
            repairs=summary["repairs"],
            attributed=summary["repairs_attributed"],
            cursor_faults=applier.cursor_faults,
            diverged_keys=diverged_keys,
            stale_clients=stale_clients,
            orphans=orphans,
            cursors_ok=cursors_ok,
            placement_ok=placement_ok,
            legal=legal,
            rounds_max=rounds_max,
        )

    result.notes.append(
        "legal == True means the end state passed the full audit: "
        "replica state byte-equal to the source head, all cursors "
        "(replica watermark, per-key versions, client reconnect "
        "cursors) within the head, no stale clients, no half-open "
        "sessions, assignment generation consistent.  rounds is the "
        "injection-to-repair lag in reconcile ticks (ceil(lag/tick)); "
        "the control row's corruption stays unrepaired forever because "
        "nothing event-triggered ever observes it — the reconcile "
        "plane's level-triggered Plan pass is what turns invisible "
        "corruption into bounded-time repair."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_clients=6,
    num_keys=40,
    update_rate=15.0,
    duration=14.0,
    settle=20.0,
    injections_per_class=1,
    inject_window=4.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Only the reconciler plane notices and repairs corruption."""
    convergence = result.table("convergence")
    control = convergence.row_by("config", "pubsub-only")
    repaired = convergence.row_by("config", "pubsub+reconciler")
    # the pipelines alone never notice arbitrary-state corruption
    assert not control["legal"] and control["repairs"] == 0
    # the reconciler plane restores a checker-verified legal state
    assert repaired["legal"]
    # ... within a bounded number of reconcile rounds
    assert 0 < repaired["rounds_max"] <= 4
    # ... with every repair attributed to the corruption it fixed
    assert repaired["attributed"] == repaired["repairs"] > 0
    for row in result.table("corruption classes").rows:
        if row["config"] == "pubsub+reconciler":
            assert row["unrepaired"] == 0, row["class"]
            assert row["rounds"] <= 4, row["class"]
        else:
            assert row["repaired"] == 0, row["class"]
