"""Tests for the VM-provisioning world and coordinators."""

import pytest

from repro.core.store_watch import StoreWatch
from repro.pubsub.broker import Broker
from repro.workqueue import coordinator as coordinator_module
from repro.workqueue.coordinator import (
    EventDrivenCoordinator,
    ProvisioningWorld,
    WatchReconciler,
)


class TestWorld:
    def test_add_and_kill_vm(self, sim):
        world = ProvisioningWorld(sim)
        vm = world.add_vm()
        assert world.actual.get(vm)["alive"]
        world.kill_vm(vm)
        assert not world.actual.get(vm)["alive"]

    def test_deficits(self, sim):
        world = ProvisioningWorld(sim)
        vm = world.add_vm()
        w = world.add_workload(replicas=2)
        assert world.deficits() == {w: 2}
        assert world.try_assign(vm, w)
        assert world.deficits() == {w: 1}
        assert world.satisfied_fraction() == 0.0
        vm2 = world.add_vm()
        world.try_assign(vm2, w)
        assert world.satisfied_fraction() == 1.0

    def test_try_assign_guards(self, sim):
        world = ProvisioningWorld(sim)
        vm = world.add_vm()
        w = world.add_workload()
        world.kill_vm(vm)
        assert not world.try_assign(vm, w)  # dead VM
        vm2 = world.add_vm()
        world.remove_workload(w)
        assert not world.try_assign(vm2, w)  # removed workload

    def test_try_assign_taken_vm(self, sim):
        world = ProvisioningWorld(sim)
        vm = world.add_vm()
        w1 = world.add_workload()
        w2 = world.add_workload()
        assert world.try_assign(vm, w1)
        assert not world.try_assign(vm, w2)

    def test_unassign(self, sim):
        world = ProvisioningWorld(sim)
        vm = world.add_vm()
        w = world.add_workload()
        world.try_assign(vm, w)
        assert world.try_unassign(vm)
        assert world.actual.get(vm)["workload"] is None
        assert not world.try_unassign(vm)  # already free

    def test_kill_random_vm_none_when_empty(self, sim):
        world = ProvisioningWorld(sim)
        assert world.kill_random_vm() is None


class TestWatchReconciler:
    def make(self, sim, world):
        return WatchReconciler(
            sim, world,
            StoreWatch(sim, world.desired),
            StoreWatch(sim, world.actual),
        )

    def test_fills_deficits(self, sim):
        world = ProvisioningWorld(sim)
        for _ in range(6):
            world.add_vm()
        reconciler = self.make(sim, world)
        sim.run_for(0.5)
        world.add_workload(replicas=2)
        world.add_workload(replicas=2)
        sim.run_for(5.0)
        assert world.satisfied_fraction() == 1.0
        assert reconciler.misdirected_actions == 0

    def test_replaces_dead_vms(self, sim):
        world = ProvisioningWorld(sim)
        vms = [world.add_vm() for _ in range(4)]
        reconciler = self.make(sim, world)
        sim.run_for(0.5)
        w = world.add_workload(replicas=2)
        sim.run_for(2.0)
        assert world.deficits() == {}
        # kill one assigned VM
        assigned = [
            vm for vm, row in world.actual.scan()
            if row["workload"] == w
        ]
        world.kill_vm(assigned[0])
        sim.run_for(5.0)
        assert world.deficits() == {}
        # the dead VM was released
        assert world.actual.get(assigned[0])["workload"] is None

    def test_releases_vms_of_removed_workloads(self, sim):
        world = ProvisioningWorld(sim)
        world.add_vm()
        reconciler = self.make(sim, world)
        sim.run_for(0.5)
        w = world.add_workload(replicas=1)
        sim.run_for(2.0)
        world.remove_workload(w)
        sim.run_for(2.0)
        assert len(world.free_live_vms()) == 1


class TestEventDrivenCoordinator:
    def test_provisions_from_events(self, sim):
        world = ProvisioningWorld(sim)
        for _ in range(4):
            world.add_vm()
        broker = Broker(sim)
        coordinator = EventDrivenCoordinator(sim, world, broker)
        sim.run_for(6.0)  # let the free-VM poll populate
        world.add_workload(replicas=2)
        sim.run_for(5.0)
        assert world.satisfied_fraction() == 1.0

    def test_stale_free_list_misdirects(self, sim, monkeypatch):
        monkeypatch.setattr(coordinator_module, "POLL_INTERVAL", 60.0)  # very stale
        monkeypatch.setattr(coordinator_module, "FULL_SWEEP_INTERVAL", 1000.0)
        world = ProvisioningWorld(sim)
        vms = [world.add_vm() for _ in range(3)]
        broker = Broker(sim)
        coordinator = EventDrivenCoordinator(sim, world, broker)
        sim.run_for(61.0)  # poll happened: 3 free VMs cached
        # now all the cached VMs die; replacements appear
        for vm in vms:
            world.kill_vm(vm)
        fresh = [world.add_vm() for _ in range(3)]
        world.add_workload(replicas=1)
        sim.run_for(10.0)
        # it acted on the stale list (dead VMs) before finding... nothing
        assert coordinator.misdirected_actions > 0
