"""E6b — §4.3's closing example: provisioning VMs for workloads.

"The event-based approach introduces complexity because the state of
the world (including available compute resources) changes constantly
and in general does not match the state when the work event was
enqueued.  By watching both the desired configuration ... and the
actual configuration ..., the coordinator can correctly advance the
actual state to the desired configuration."

Setup: workloads are added/removed and VMs die/arrive continuously.
Both coordinators act only through conditional transactions (safety is
equal); what differs is how often their actions are *misdirected*
(conditioned on a stale world) and how quickly the fleet converges.

Measured: time-average satisfied fraction, misdirected-action rate,
and final convergence.
"""

from __future__ import annotations

from repro.bench.runner import ExperimentResult, signature_defaults
from repro.core.store_watch import StoreWatch
from repro.pubsub.broker import Broker
from repro.sim.kernel import Simulation, Timeout
from repro.workqueue.coordinator import (
    EventDrivenCoordinator,
    ProvisioningWorld,
    WatchReconciler,
)


def run(
    num_vms: int = 60,
    num_workloads: int = 20,
    replicas: int = 2,
    vm_death_interval: float = 2.0,
    workload_churn_interval: float = 4.0,
    duration: float = 120.0,
    settle: float = 30.0,
    seed: int = 79,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="E6b VM provisioning: events vs reconciliation (§4.3)",
        claim="an event-driven coordinator acts on the world as it was "
              "when events were enqueued (misdirected actions, slow "
              "convergence under churn); a watch-based reconciler acts "
              "on the world as it is",
    )
    table = result.new_table(
        "coordinators",
        ["coordinator", "avg_satisfied", "min_satisfied",
         "actions", "misdirected", "misdirected_frac", "final_satisfied"],
    )

    for kind in ("event-driven", "watch-reconciler"):
        sim = Simulation(seed=seed)
        world = ProvisioningWorld(sim)
        for _ in range(num_vms):
            world.add_vm()
        coordinator = None
        if kind == "event-driven":
            broker = Broker(sim)
            coordinator = EventDrivenCoordinator(
                sim, world, broker, poll_interval=5.0,
                full_sweep_interval=30.0,
            )
        else:
            desired_watch = StoreWatch(sim, world.desired)
            actual_watch = StoreWatch(sim, world.actual)
            coordinator = WatchReconciler(
                sim, world, desired_watch, actual_watch, tick=0.5
            )
        # initial workloads arrive after the coordinator exists
        for _ in range(num_workloads):
            world.add_workload(replicas=replicas)

        # churn drivers
        def vm_churn():
            while sim.now() < duration:
                victim = world.kill_random_vm()
                if victim is not None:
                    world.add_vm()  # capacity arrives elsewhere
                yield Timeout(vm_death_interval)

        def workload_churn():
            while sim.now() < duration:
                active = [k for k, _ in world.desired.scan()]
                if active and sim.rng.random() < 0.5:
                    world.remove_workload(active[sim.rng.randrange(len(active))])
                else:
                    world.add_workload(replicas=replicas)
                yield Timeout(workload_churn_interval)

        sim.spawn(vm_churn(), name="vm-churn")
        sim.spawn(workload_churn(), name="workload-churn")

        samples = []

        def sample():
            samples.append(world.satisfied_fraction())
            sim.call_after(0.5, sample)

        sim.call_after(1.0, sample)
        sim.run(until=duration + settle)

        steady = samples[10:]
        table.add(
            coordinator=kind,
            avg_satisfied=round(sum(steady) / len(steady), 4),
            min_satisfied=round(min(steady), 4),
            actions=coordinator.actions,
            misdirected=coordinator.misdirected_actions,
            misdirected_frac=round(
                coordinator.misdirected_actions / coordinator.actions, 4
            ) if coordinator.actions else 0.0,
            final_satisfied=round(world.satisfied_fraction(), 4),
        )

    result.notes.append(
        "satisfied fraction sampled every 0.5s during churn plus a "
        "settle period; misdirected actions are conditional transactions "
        "that failed because the world had moved (dead/taken VM, "
        "removed workload)."
    )
    return result


DEFAULTS = signature_defaults(run)
QUICK = dict(
    num_vms=40,
    num_workloads=12,
    vm_death_interval=2.5,
    workload_churn_interval=5.0,
    duration=60.0,
    settle=20.0,
)


def check(result: ExperimentResult, params: dict) -> None:
    """Reconciling from watched state beats reacting to events."""
    table = result.table("coordinators")
    events = table.row_by("coordinator", "event-driven")
    reconciler = table.row_by("coordinator", "watch-reconciler")
    # the reconciler keeps the fleet far closer to the desired state
    assert reconciler["avg_satisfied"] > events["avg_satisfied"]
    assert reconciler["avg_satisfied"] > 0.9
    # and wastes (almost) no actions on a stale view of the world
    assert reconciler["misdirected_frac"] <= 0.02
    assert events["misdirected_frac"] > reconciler["misdirected_frac"]
