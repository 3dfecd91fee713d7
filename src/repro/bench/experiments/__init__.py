"""Experiment modules E1–E17 and ablations A1–A4 (see DESIGN.md §4 for
the claim map).

Modules are imported lazily so running one experiment does not require
the whole suite's import cost.
"""

from __future__ import annotations

import importlib
from typing import Dict

_MODULES: Dict[str, str] = {
    "E1": "repro.bench.experiments.e1_fanout",
    "E2": "repro.bench.experiments.e2_backlog_gc",
    "E2b": "repro.bench.experiments.e2b_compaction",
    "E3": "repro.bench.experiments.e3_invalidation_race",
    "E4": "repro.bench.experiments.e4_replication",
    "E5": "repro.bench.experiments.e5_ingestion",
    "E6": "repro.bench.experiments.e6_workqueue",
    "E6b": "repro.bench.experiments.e6b_reconcile",
    "E7": "repro.bench.experiments.e7_snapshot_stitch",
    "E8": "repro.bench.experiments.e8_efficiency",
    "E9": "repro.bench.experiments.e9_quadrants",
    "E10": "repro.bench.experiments.e10_chaos_soak",
    "E11": "repro.bench.experiments.e11_edge_storm",
    "E12": "repro.bench.experiments.e12_batching",
    "E13": "repro.bench.experiments.e13_reconcile_chaos",
    "E14": "repro.bench.experiments.e14_session_scale",
    "E15": "repro.bench.experiments.e15_broker_batch_sweep",
    "E16": "repro.bench.experiments.e16_causal_order",
    "E17": "repro.bench.experiments.e17_fleet_scale",
    # ablations of the proposed model's design choices
    "A1": "repro.bench.experiments.a1_fanout_tree",
    "A2": "repro.bench.experiments.a2_soft_state_budget",
    "A3": "repro.bench.experiments.a3_shard_isolation",
    "A4": "repro.bench.experiments.a4_replica_snapshots",
}


def get(experiment_id: str):
    """Import and return the module for an experiment id (e.g. 'E3')."""
    return importlib.import_module(_MODULES[experiment_id])


def all_ids():
    return list(_MODULES)
