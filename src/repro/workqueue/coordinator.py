"""VM provisioning: event-driven coordination vs watch reconciliation.

The paper's closing §4.3 example.  The world is two stores:

- *desired*: ``workload/<id> -> {"replicas": n}``;
- *actual*: ``vm/<id> -> {"alive": bool, "workload": id | None}``.

Goal: every workload has ``replicas`` live VMs assigned.  Both
coordinators may only act through conditional store transactions, so
neither can corrupt state — the comparison is about *wasted and
misdirected actions* and *convergence time* under churn.

:class:`EventDrivenCoordinator` (the pubsub pattern): workload-change
events arrive through a pubsub topic and become queued tasks; free-VM
knowledge comes from a periodically polled snapshot.  "The event-based
approach introduces complexity because the state of the world ...
changes constantly and in general does not match the state when the
work event was enqueued": tasks act on stale payloads and stale VM
lists, so they pick dead or already-taken VMs (aborted transactions,
counted), and VM deaths that arrive eventless (or whose repair event
was processed before the replacement existed) leave deficits until some
later event happens to touch the workload.  A slow "full resync" sweep
(the operational fallback real systems bolt on) eventually repairs.

:class:`WatchReconciler`: linked caches over both stores; on every
change (and a fast periodic tick) it recomputes the diff against the
*current* state and acts.  Actions are validated against fresh state,
so aborts are rare and convergence is bounded by watch latency plus
action time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._types import KEY_MAX, Key, KeyRange
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.sim.kernel import Simulation, Timeout
from repro.storage.errors import ConflictError
from repro.storage.kv import MVCCStore
from repro.storage.tso import TimestampOracle


WORKLOAD_PREFIX = "workload/"
VM_PREFIX = "vm/"

#: the event-driven coordinator: how often it re-reads its free-VM
#: view, how often its full resync runs, and its per-event action time
POLL_INTERVAL = 5.0
FULL_SWEEP_INTERVAL = 30.0
ACTION_TIME = 0.01
#: seconds between the watch reconciler's passes
RECONCILE_TICK = 0.5


class ProvisioningWorld:
    """Desired + actual stores, churn helpers, and the ground truth."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        tso = TimestampOracle()
        self.desired = MVCCStore(tso=tso, name="desired", clock=sim.now)
        self.actual = MVCCStore(tso=tso, name="actual", clock=sim.now)
        self._next_vm = 0
        self._next_workload = 0

    # ------------------------------------------------------------------
    # churn operations

    def add_vm(self) -> Key:
        vm_id = f"{VM_PREFIX}{self._next_vm:06d}"
        self._next_vm += 1
        self.actual.put(vm_id, {"alive": True, "workload": None})
        return vm_id

    def kill_vm(self, vm_id: Key) -> None:
        row = self.actual.get(vm_id)
        if row is not None and row["alive"]:
            self.actual.put(vm_id, {"alive": False, "workload": row["workload"]})

    def kill_random_vm(self) -> Optional[Key]:
        alive = [k for k, v in self.actual.scan() if v.get("alive")]
        if not alive:
            return None
        vm_id = alive[self.sim.rng.randrange(len(alive))]
        self.kill_vm(vm_id)
        return vm_id

    def add_workload(self, replicas: int = 2) -> Key:
        workload_id = f"{WORKLOAD_PREFIX}{self._next_workload:06d}"
        self._next_workload += 1
        self.desired.put(workload_id, {"replicas": replicas})
        return workload_id

    def remove_workload(self, workload_id: Key) -> None:
        if self.desired.get(workload_id) is not None:
            self.desired.delete(workload_id)

    # ------------------------------------------------------------------
    # ground truth

    def deficits(self) -> Dict[Key, int]:
        """Per-workload missing live replicas (positive = unsatisfied)."""
        assigned: Dict[Key, int] = {}
        for _vm, row in self.actual.scan():
            if row.get("alive") and row.get("workload"):
                workload = row["workload"]
                assigned[workload] = assigned.get(workload, 0) + 1
        out: Dict[Key, int] = {}
        for workload_id, spec in self.desired.scan():
            deficit = spec["replicas"] - assigned.get(workload_id, 0)
            if deficit > 0:
                out[workload_id] = deficit
        return out

    def satisfied_fraction(self) -> float:
        workloads = list(self.desired.scan())
        if not workloads:
            return 1.0
        deficits = self.deficits()
        return 1.0 - len(deficits) / len(workloads)

    def free_live_vms(self) -> List[Key]:
        return [
            vm for vm, row in self.actual.scan()
            if row.get("alive") and row.get("workload") is None
        ]

    # ------------------------------------------------------------------
    # conditional actions (both coordinators act only through these)

    def try_assign(self, vm_id: Key, workload_id: Key) -> bool:
        """Assign iff the VM is currently live and free and the workload
        still exists."""
        txn = self.actual.transaction()
        row = txn.get(vm_id)
        if row is None or not row["alive"] or row["workload"] is not None:
            txn.abort()
            return False
        if self.desired.get(workload_id) is None:
            txn.abort()
            return False
        txn.put(vm_id, {"alive": True, "workload": workload_id})
        try:
            txn.commit()
        except ConflictError:
            return False
        return True

    def try_unassign(self, vm_id: Key) -> bool:
        txn = self.actual.transaction()
        row = txn.get(vm_id)
        if row is None or row["workload"] is None:
            txn.abort()
            return False
        txn.put(vm_id, {"alive": row["alive"], "workload": None})
        try:
            txn.commit()
        except ConflictError:
            return False
        return True


class EventDrivenCoordinator:
    """Queue-of-tasks coordinator over pubsub events + polled VM view."""

    def __init__(
        self,
        sim: Simulation,
        world: ProvisioningWorld,
        broker: Broker,
    ) -> None:
        self.sim = sim
        self.world = world
        self._cached_free: List[Key] = []
        self.actions = 0
        self.misdirected_actions = 0  # acted on state that was stale
        # desired-store changes flow through pubsub
        from repro.cdc.publisher import CdcPublisher

        broker.create_topic("provision-events", num_partitions=4)
        # each history's subscription holds its publisher
        CdcPublisher(sim, world.desired.history, broker, "provision-events")
        CdcPublisher(sim, world.actual.history, broker, "provision-events")
        group = broker.consumer_group(
            "provision-events",
            "coordinator",
            SubscriptionConfig(routing=RoutingPolicy.RANDOM, ack_timeout=10.0),
        )
        self._consumer = Consumer(
            sim, "coordinator", handler=self._on_event, service_time=ACTION_TIME
        )
        group.join(self._consumer)
        sim.call_after(POLL_INTERVAL, self._poll)
        sim.call_after(FULL_SWEEP_INTERVAL, self._full_sweep)

    # ------------------------------------------------------------------
    # event handling (acts on the event payload: the world as it *was*)

    def _on_event(self, message: Message) -> bool:
        key = message.key or ""
        if key.startswith(WORKLOAD_PREFIX):
            if message.payload["op"] == "put":
                replicas = message.payload["value"]["replicas"]
                self._provision(key, replicas)
            return True
        if key.startswith(VM_PREFIX) and message.payload["op"] == "put":
            row = message.payload["value"]
            if not row["alive"] and row["workload"] is not None:
                # a VM died while assigned: repair that workload by one
                self._provision(row["workload"], 1, repair_vm=key)
            return True
        return True

    def _provision(self, workload_id: Key, count: int, repair_vm: Optional[Key] = None) -> None:
        if repair_vm is not None:
            self.actions += 1
            if not self.world.try_unassign(repair_vm):
                self.misdirected_actions += 1
        placed = 0
        while placed < count and self._cached_free:
            vm_id = self._cached_free.pop()
            self.actions += 1
            if self.world.try_assign(vm_id, workload_id):
                placed += 1
            else:
                self.misdirected_actions += 1  # stale free-list entry

    # ------------------------------------------------------------------
    # stale free-VM view

    def _poll(self) -> None:
        self._cached_free = self.world.free_live_vms()
        self.sim.call_after(POLL_INTERVAL, self._poll)

    # ------------------------------------------------------------------
    # the operational fallback: slow full resync

    def _full_sweep(self) -> None:
        free = self.world.free_live_vms()
        for workload_id, deficit in self.world.deficits().items():
            for _ in range(deficit):
                if not free:
                    break
                vm_id = free.pop()
                self.actions += 1
                if not self.world.try_assign(vm_id, workload_id):
                    self.misdirected_actions += 1
        self.sim.call_after(FULL_SWEEP_INTERVAL, self._full_sweep)


class WatchReconciler:
    """Watches desired + actual; reconciles against current state."""

    def __init__(
        self,
        sim: Simulation,
        world: ProvisioningWorld,
        desired_watchable,
        actual_watchable,
    ) -> None:
        self.sim = sim
        self.world = world
        self.actions = 0
        self.misdirected_actions = 0
        self._desired_view = LinkedCache(
            sim, desired_watchable,
            lambda kr: (world.desired.last_version, dict(world.desired.scan(kr))),
            KeyRange(WORKLOAD_PREFIX, WORKLOAD_PREFIX + KEY_MAX),
            config=LinkedCacheConfig(snapshot_latency=0.01),
            name="reconciler-desired",
        )
        self._actual_view = LinkedCache(
            sim, actual_watchable,
            lambda kr: (world.actual.last_version, dict(world.actual.scan(kr))),
            KeyRange(VM_PREFIX, VM_PREFIX + KEY_MAX),
            config=LinkedCacheConfig(snapshot_latency=0.01),
            name="reconciler-actual",
        )
        self._desired_view.start()
        self._actual_view.start()
        sim.spawn(self._loop(), name="reconciler")

    def _loop(self):
        while True:
            self.reconcile_once()
            yield Timeout(RECONCILE_TICK)

    def reconcile_once(self) -> int:
        """One pass: free dead-VM assignments, fill deficits from the
        watched (current) view.  Returns actions taken."""
        if not (self._desired_view.available and self._actual_view.available):
            return 0
        desired = self._desired_view.data.items_latest()
        actual = self._actual_view.data.items_latest()
        taken = 0
        assigned: Dict[Key, int] = {}
        free: List[Key] = []
        for vm_id, row in sorted(actual.items()):
            if row["alive"] and row["workload"] is None:
                free.append(vm_id)
            elif row["alive"] and row["workload"] is not None:
                if row["workload"] in desired:
                    assigned[row["workload"]] = assigned.get(row["workload"], 0) + 1
                else:
                    # workload deleted: release the VM
                    self.actions += 1
                    taken += 1
                    if not self.world.try_unassign(vm_id):
                        self.misdirected_actions += 1
            elif not row["alive"] and row["workload"] is not None:
                self.actions += 1
                taken += 1
                if not self.world.try_unassign(vm_id):
                    self.misdirected_actions += 1
        for workload_id, spec in sorted(desired.items()):
            deficit = spec["replicas"] - assigned.get(workload_id, 0)
            while deficit > 0 and free:
                vm_id = free.pop()
                self.actions += 1
                taken += 1
                if self.world.try_assign(vm_id, workload_id):
                    deficit -= 1
                else:
                    self.misdirected_actions += 1
        return taken
