"""Tests for the auto-sharder: moves, splits, membership, notification."""

import pytest

from repro._types import KeyRange, ranges_cover
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig


def make_sharder(sim, nodes=("n1", "n2"), **config_kwargs):
    config = AutoSharderConfig(
        notify_latency=0.01, notify_jitter=0.0, **config_kwargs
    )
    return AutoSharder(sim, list(nodes), config)


class TestBasics:
    def test_initial_assignment_complete(self, sim):
        sharder = make_sharder(sim, nodes=("a", "b", "c"))
        assert ranges_cover(
            [s.key_range for s in sharder.assignment.slices], KeyRange.all()
        )
        assert set(sharder.assignment.nodes()) == {"a", "b", "c"}

    def test_move_key(self, sim):
        sharder = make_sharder(sim)
        moved = sharder.move_key("q", "n1")
        assert moved.contains("q")
        assert sharder.assignment.owner_of("q") == "n1"
        assert sharder.assignment.generation == 1

    def test_split_at(self, sim):
        sharder = make_sharder(sim)
        before = len(sharder.assignment.slices)
        sharder.split_at("qq")
        assert len(sharder.assignment.slices) == before + 1
        sharder.split_at("qq")  # idempotent
        assert len(sharder.assignment.slices) == before + 1

    def test_every_change_bumps_generation(self, sim):
        sharder = make_sharder(sim)
        g0 = sharder.assignment.generation
        sharder.move_key("a", "n2")
        sharder.split_at("qq")
        assert sharder.assignment.generation == g0 + 2


class TestMembership:
    def test_add_node_steals_a_slice(self, sim):
        sharder = make_sharder(sim)
        sharder.add_node("n3")
        assert "n3" in sharder.assignment.nodes()

    def test_add_node_takes_the_slice_with_most_recorded_load(self, sim):
        # slices [min, i) [i, r) [r, max) on a, b, c
        sharder = make_sharder(sim, nodes=("a", "b", "c"))
        for key, times in (("bkey", 3), ("pkey", 5)):
            for _ in range(times):
                sharder.record_load(key)
        # the split shifts [i, r) from index 1 to 2 and the move keeps
        # every index: the recorded load follows its range
        sharder.split_at("c")
        sharder.move_key("zkey", "a")
        for _ in range(4):
            sharder.record_load("tkey")
        sharder.add_node("d")
        assert sharder.assignment.owner_of("pkey") == "d"
        assert sharder.assignment.owner_of("bkey") == "a"
        # the steal keeps the loads: [r, max) overtakes [i, r) at 6 > 5
        for _ in range(2):
            sharder.record_load("tkey")
        sharder.add_node("e")
        assert sharder.assignment.owner_of("tkey") == "e"
        assert sharder.assignment.owner_of("pkey") == "d"

    def test_remove_node_reassigns(self, sim):
        sharder = make_sharder(sim, nodes=("a", "b", "c"))
        sharder.remove_node("b")
        assert "b" not in sharder.assignment.nodes()
        assert ranges_cover(
            [s.key_range for s in sharder.assignment.slices], KeyRange.all()
        )

    def test_cannot_remove_last(self, sim):
        sharder = make_sharder(sim, nodes=("only",))
        slices = sharder.assignment.slices
        generation = sharder.assignment.generation
        with pytest.raises(ValueError):
            sharder.remove_node("only")
        # the refusal leaves the sharder as it was
        assert sharder._nodes == ["only"]
        assert sharder.assignment.slices == slices
        assert sharder.assignment.generation == generation
        sharder.add_node("x")
        assert sharder._nodes == ["only", "x"]

    def test_duplicate_add_ignored(self, sim):
        sharder = make_sharder(sim)
        gen = sharder.assignment.generation
        sharder.add_node("n1")
        assert sharder.assignment.generation == gen


class TestNotification:
    def test_listeners_notified_with_latency(self, sim):
        sharder = make_sharder(sim)
        seen = []
        sharder.subscribe(lambda a: seen.append((sim.now(), a.generation)))
        sim.run_for(0.1)
        assert seen == [(0.01, 0)]  # immediate current assignment
        sharder.move_key("k", "n2")
        sim.run_for(0.1)
        assert seen[-1][1] == 1

    def test_unsubscribe(self, sim):
        sharder = make_sharder(sim)
        seen = []
        cancel = sharder.subscribe(lambda a: seen.append(a.generation), immediate=False)
        cancel()
        sharder.move_key("k", "n2")
        sim.run_for(1.0)
        assert seen == []

    def test_notify_jitter_diverges_listener_views(self):
        """The raw material of Figure 2: listeners learn at different
        times."""
        from repro.sim.kernel import Simulation

        sim = Simulation(seed=5)
        sharder = AutoSharder(
            sim, ["a", "b"],
            AutoSharderConfig(notify_latency=0.01, notify_jitter=0.5),
        )
        times = {}
        sharder.subscribe(lambda a: times.setdefault("l1", sim.now()), immediate=False)
        sharder.subscribe(lambda a: times.setdefault("l2", sim.now()), immediate=False)
        sharder.move_key("k", "b")
        sim.run_for(2.0)
        assert times["l1"] != times["l2"]


class TestLoadRebalancing:
    def test_assignment_remains_complete_under_churn(self, sim):
        sharder = make_sharder(sim, nodes=("a", "b", "c"))
        for i in range(30):
            op = i % 4
            if op == 0:
                sharder.move_key(f"{chr(97 + i % 26)}x", f"node-{i}")
            elif op == 1:
                sharder.split_at(f"{chr(97 + i % 26)}{i:03d}")
            elif op == 2:
                sharder.add_node(f"new-{i}")
            else:
                for _ in range(20):
                    sharder.record_load(f"{chr(97 + i % 26)}load")
                sharder.remove_node(f"new-{i - 1}")
            assert ranges_cover(
                [s.key_range for s in sharder.assignment.slices],
                KeyRange.all(),
            )
