"""repro.reconcile — the self-stabilizing reconciliation plane.

A generic level-triggered Plan/Execute framework
(:class:`~repro.reconcile.framework.Reconciler` over a CAS-claimed
:class:`~repro.reconcile.framework.ScopeTable`), two concrete
reconcilers (anti-entropy replication repair, edge/placement repair),
and the :class:`~repro.reconcile.corruptor.StateCorruptor` fault
injector E13 uses to prove convergence from arbitrary corrupted state.
"""

from repro.reconcile.anti_entropy import AntiEntropyReconciler
from repro.reconcile.corruptor import (
    CORRUPTION_CLASSES,
    StateCorruptor,
    scope_for_key,
    shard_scopes,
)
from repro.reconcile.edge import EdgeReconciler
from repro.reconcile.framework import (
    PlanResult,
    Reconciler,
    ScopeRecord,
    ScopeTable,
    SingleWriterViolation,
)

__all__ = [
    "AntiEntropyReconciler",
    "CORRUPTION_CLASSES",
    "EdgeReconciler",
    "PlanResult",
    "Reconciler",
    "ScopeRecord",
    "ScopeTable",
    "SingleWriterViolation",
    "StateCorruptor",
    "scope_for_key",
    "shard_scopes",
]
